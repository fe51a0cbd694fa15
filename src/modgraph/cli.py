"""Command-line front end.

Subcommands: analyze, probe, search, families, selftest.  Output is
buffered and emitted in one piece (stdout or an output file written via
temp-and-rename), so failures never leave partial JSON behind.

Exit codes: 0 success; 1 parse/flag failure, an analyze core over the
20-edge cap or unwritable output file; 2 certificate or cross-check
violation, selftest failures and any other internal failure (one `error:`
line, no traceback); 3 search found nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

from .convergence import (
    CSV_HEADER,
    analyze,
    make_doubled_2ngon,
    make_ngon,
    rational_fields,
    search_divergent,
)
from .graphs import GraphError, parse_graph
from .matroid import MAX_GROUND_SET, CertificateError, MatroidError
from .probe import (
    DEFAULT_GRID,
    DEFAULT_SEED,
    ProbeConfig,
    _verdict_json,
    truncated_J,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_NO_HITS = 3


class InputError(Exception):
    """A flag or environment value is out of range."""


class OutputError(Exception):
    """The output file cannot be written."""


def _probe_seed(flag: int | None) -> int:
    """The probe seed from --seed, else MODGRAPH_SEED, else the default."""
    if flag is not None:
        seed, source = flag, "--seed"
    else:
        raw = os.environ.get("MODGRAPH_SEED")
        if raw is None:
            return DEFAULT_SEED
        try:
            seed = int(raw)
        except ValueError:
            raise InputError(f"MODGRAPH_SEED must be an integer, got {raw!r}") from None
        source = "MODGRAPH_SEED"
    if seed < 0:
        raise InputError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        # the rename below would replace a device, pipe or directory
        raise OutputError(f"{out_path}: not a regular file")
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".modgraph-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"{out_path}: {exc.strerror or exc}") from None


def _load_graph(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    try:
        return parse_graph(text)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def cmd_analyze(args) -> int:
    # both checks come before any analysis runs
    if args.probe and args.format == "csv":
        raise InputError("--probe has no CSV columns; use --format json")
    seed = _probe_seed(args.seed)
    reports = []
    for path in args.paths:
        try:
            g = _load_graph(path)
        except GraphError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INPUT
        if g.n_edges > args.max_edges:
            sys.stderr.write(
                f"error: {path}: {g.n_edges} edges exceeds --max-edges "
                f"{args.max_edges}\n"
            )
            return EXIT_INPUT
        try:
            reports.append((path, analyze(g, with_probe=args.probe,
                                          probe_seed=seed)))
        except MatroidError as exc:  # a core over the 20-edge cap
            sys.stderr.write(f"error: {path}: {exc}\n")
            return EXIT_INPUT
        except CertificateError as exc:
            sys.stderr.write(f"error: {path}: {exc}\n")
            return EXIT_CERTIFICATE
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for path, rep in reports:
            writer.writerow(rep.csv_row(path))
        _emit(buf.getvalue(), args.out)
    else:
        if len(reports) == 1:
            text = json.dumps(reports[0][1].to_json_dict(), indent=2) + "\n"
        else:
            text = "".join(
                json.dumps({"input": path, **rep.to_json_dict()}) + "\n"
                for path, rep in reports
            )
        _emit(text, args.out)
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.samples is not None and args.method == "tensor_quadrature":
        sys.stderr.write("error: --samples sets the Monte Carlo sample count; "
                         "tensor_quadrature does not take it\n")
        return EXIT_INPUT
    seed = _probe_seed(args.seed)
    try:
        g = _load_graph(args.path)
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        cfg = ProbeConfig(
            s=args.s,
            r_grid=tuple(args.grid) if args.grid else DEFAULT_GRID,
            samples=ProbeConfig.samples if args.samples is None else args.samples,
            seed=seed,
            method=args.method,
        )
        verdict = truncated_J(g, cfg)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["R", "F", "stderr"])
        for r, f, err in zip(cfg.r_grid, verdict.values, verdict.stderrs):
            writer.writerow([repr(r), repr(f), repr(err)])
        _emit(buf.getvalue(), args.out)
        return EXIT_OK
    payload = {
        "schema": "1",
        "s": args.s,
        "method": cfg.method,
        "seed": seed,
        "samples": cfg.samples,
        "grid": list(cfg.r_grid),
        **_verdict_json(verdict),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        target = Fraction(args.target)
    except (ValueError, ZeroDivisionError):
        sys.stderr.write(f"error: bad --target {args.target!r}\n")
        return EXIT_INPUT
    tree_counts: list[int] = []
    try:
        hits = search_divergent(
            args.genus, args.max_edges, target, tree_counts=tree_counts
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    lines = []
    for (g, c), n_trees in zip(hits, tree_counts):
        lines.append(json.dumps({
            "graph": g.to_json_dict(),
            "vertices": g.n_vertices,
            "edges": g.n_edges,
            "c": rational_fields(c),
            "psi_terms": n_trees,
        }))
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK if hits else EXIT_NO_HITS


def cmd_families(args) -> int:
    n_edges = args.ngon if args.ngon is not None else 3 * args.doubled
    if n_edges > MAX_GROUND_SET:
        sys.stderr.write(
            f"error: the family graph would have {n_edges} edges; at most "
            f"{MAX_GROUND_SET} are supported\n"
        )
        return EXIT_INPUT
    try:
        if args.ngon is not None:
            g = make_ngon(args.ngon)
        else:
            g = make_doubled_2ngon(args.doubled)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    _emit(json.dumps(g.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only this command needs it

    return run_selftest(quick=args.quick)


def _edge_limit(text: str) -> int:
    """--max-edges of analyze: an int of at least 1."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if limit < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {limit}")
    return limit


class _Parser(argparse.ArgumentParser):
    """A bad flag is an input error: one `error:` line and exit code 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every `main` call shares it."""
    parser = _Parser(
        prog="modgraph",
        description=(
            "Kirchhoff polynomials, convergence thresholds with exact "
            "certificates, optimal contractions, and numeric growth probes "
            "for connected multigraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis of one or more graphs")
    p.add_argument("paths", nargs="+", help="graph files (JSON or edge list)")
    p.add_argument("--probe", action="store_true",
                   help="run growth probes at s = c and s = c + 1/2 "
                        "(JSON output only)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-edges", type=_edge_limit, default=MAX_GROUND_SET,
                   help="refuse graphs with more edges (default: the "
                        f"{MAX_GROUND_SET}-edge cap of the exhaustive scans)")
    p.add_argument("--seed", type=int, default=None,
                   help="probe seed (default: MODGRAPH_SEED or built-in)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("probe", help="growth probe of one bridgeless graph")
    p.add_argument("path")
    p.add_argument("--s", type=float, required=True, help="real exponent s")
    p.add_argument("--method", choices=("monte_carlo", "tensor_quadrature"),
                   default="monte_carlo")
    p.add_argument("--samples", type=int, default=None,
                   help="Monte Carlo sample count (default 100000)")
    p.add_argument("--grid", type=float, nargs="+", default=None,
                   help="box radii (default e^4 e^6 e^8 e^10)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv emits (R, F, stderr) rows for plotting")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("search", help="hunt for high-threshold stable graphs")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--target", required=True,
                   help="rational threshold target, e.g. 5 or 3/2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("families", help="emit a named family graph as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ngon", type=int, default=None)
    group.add_argument("--doubled", type=int, default=None,
                       help="2n-gon with every other side doubled")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true",
                   help="skip the long probe and search criteria")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # an internal failure, never a traceback
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal failure: {type(exc).__name__}: "
                         f"{detail}\n")
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
