"""Every name the README and the package docstrings cite in backticks as
private (`_name`) or module-qualified (`module.name`) exists, so deleting
or renaming a function cannot leave a stale reference in the docs."""

import ast
import importlib
import pathlib
import pkgutil
import re

import modgraph

PACKAGE = pathlib.Path(modgraph.__file__).parent
README = PACKAGE.parent.parent / "README.md"
MODULES = {name: importlib.import_module(f"modgraph.{name}")
           for _, name, _ in pkgutil.iter_modules(modgraph.__path__)
           if name != "__main__"}
SPAN = re.compile(r"`([^`\n]+)`")
# the leading dotted name of a span, as in `matroid._stack_rows(e)`
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FILE = re.compile(r"[\w/.-]+\.(?:py|md|json|toml|txt)")


def _resolves(owner, chain) -> bool:
    for attr in chain:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def _dangling(where: str, text: str) -> list[str]:
    """The spans of `text` that cite a private or module-qualified name
    that no modgraph module holds; file names are skipped."""
    out = []
    for span in SPAN.findall(text):
        name = NAME.match(span)
        if FILE.fullmatch(span) or not name:
            continue
        first, *rest = name.group().split(".")
        if first in MODULES and rest:
            owners, chain = [MODULES[first]], rest
        elif first.startswith("_"):
            owners, chain = MODULES.values(), [first, *rest]
        else:
            continue
        if not any(_resolves(owner, chain) for owner in owners):
            out.append(f"{where}: `{span}`")
    return out


def _docstrings():
    """(where, docstring) of every module, class and function in the
    package."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, kinds) and (doc := ast.get_docstring(node)):
                yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


def test_docstring_names_exist():
    found = [span for where, doc in _docstrings()
             for span in _dangling(where, doc)]
    assert found == []


def test_readme_names_exist():
    # fenced blocks hold shell sessions and output, not names
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.M | re.S)
    assert _dangling("README.md", text) == []


def test_checker_flags_missing_names():
    text = ("`_ranks_reach` `matroid._parts(m)` `simplex.py` "
            "`convergence._recheck` `_rank_tables` `density(m)` "
            "`matroid.CographicMatroid.rank_table` `convergence._Core.graph`")
    assert _dangling("x", text) == [
        "x: `_ranks_reach`", "x: `matroid._parts(m)`",
        "x: `convergence._Core.graph`"]
