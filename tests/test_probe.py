import gc
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import modgraph.probe as probe
from modgraph import (
    Multigraph,
    ProbeConfig,
    analyze,
    make_ngon,
    model_integral,
    parse_graph,
    truncated_J,
)
from modgraph.probe import (
    BLOCK_POINTS,
    DEFAULT_GRID,
    DEFAULT_SEED,
    MAX_SAMPLES,
    PROBE_MAX_EDGES,
    GrowthVerdict,
    _gl_region,
    _PairwiseSum,
    _stream_states,
)
from modgraph.kirchhoff import psi_trees
from modgraph.selftest import k4_graph, theta_graph


class TestProbeConfig:
    def test_defaults(self):
        cfg = ProbeConfig(s=2.0)
        assert cfg.r_grid == DEFAULT_GRID
        assert cfg.method == "monte_carlo"

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(s=1.0, r_grid=(2.0, 60.0, 400.0))  # 2.0 < e
        with pytest.raises(ValueError):
            ProbeConfig(s=1.0, r_grid=(60.0, 50.0, 400.0))
        with pytest.raises(ValueError):
            ProbeConfig(s=1.0, r_grid=(60.0, 400.0))  # too short

    @pytest.mark.parametrize("grid", [("100", "200", "300"),
                                      (100.0, True, 300.0), "123", 5])
    def test_grid_entries_must_be_numbers(self, grid):
        with pytest.raises(ValueError, match="r_grid must be a sequence"):
            ProbeConfig(s=1.0, r_grid=grid)

    @pytest.mark.parametrize("s", [True, "1.0", None])
    def test_s_must_be_a_number(self, s):
        with pytest.raises(ValueError, match="s must be a positive finite"):
            ProbeConfig(s=s)

    def test_numeric_types_accepted(self):
        cfg = ProbeConfig(s=Fraction(3, 2), r_grid=(np.int64(100), 200, 300.0))
        assert cfg.r_grid == (100.0, 200.0, 300.0)
        assert all(type(r) is float for r in cfg.r_grid)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            ProbeConfig(s=1.0, samples=10)

    def test_sample_floor_quadrature(self):
        # quadrature ignores samples but reports it, so a bad value is refused
        with pytest.raises(ValueError, match="at least 1000"):
            ProbeConfig(s=1.0, samples=-5, method="tensor_quadrature")

    def test_samples_ceiling(self):
        assert ProbeConfig(s=1.0, samples=MAX_SAMPLES).samples == MAX_SAMPLES
        with pytest.raises(ValueError, match="at most"):
            ProbeConfig(s=1.0, samples=MAX_SAMPLES + 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="non-negative integer"):
            ProbeConfig(s=1.0, seed=seed)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(s=1.0, method="laplace")

    @pytest.mark.parametrize("value", [150_000.0, 32.0, True, "32", None])
    def test_samples_must_be_int(self, value):
        with pytest.raises(ValueError, match="samples must be an integer"):
            ProbeConfig(s=1.0, samples=value)


class TestStreamStates:
    """The batched seed-word derivation against numpy's own seeding."""

    SEEDS = [0, 1, 53771, 2**32 - 1, 2**32, 2**40 + 5, 2**96 + 3,
             (1 << 199) + 0x5DEECE66D]
    REGIONS = [0, 1, 18, 2**33 + 1]
    STRATA = [0, 1, 728, 2**31]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy(self, seed):
        for region in self.REGIONS:
            words = _stream_states(seed, region, self.STRATA)
            assert words.shape == (4, len(self.STRATA))
            assert words.dtype == np.uint64
            # one contiguous row per stratum, as _mc_region hands them on
            for k, row in zip(self.STRATA, np.ascontiguousarray(words.T)):
                seq = np.random.SeedSequence(seed, spawn_key=(region, k))
                assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
                assert (np.random.PCG64(probe._StreamWords(row)).state
                        == np.random.PCG64(seq).state)


class TestTruncatedJ:
    def test_bridge_rejected(self):
        with pytest.raises(ValueError, match="bridge"):
            truncated_J(parse_graph("0 1\n1 2\n2 0\n0 3"), ProbeConfig(s=2.0))

    def test_single_loop_closed_form(self):
        # F(R) = log R at s = 1: exact increments of 2 with the default grid
        g = parse_graph('{"edges": [[0, 0]]}')
        v = truncated_J(g, ProbeConfig(s=1.0))
        assert v.values == pytest.approx([4.0, 6.0, 8.0, 10.0], rel=5e-3)
        assert v.verdict == "diverging"

    def test_values_nondecreasing(self):
        v = truncated_J(make_ngon(3), ProbeConfig(s=3.0))
        assert all(a <= b for a, b in zip(v.values, v.values[1:]))

    def test_seed_reproducible(self):
        g = theta_graph()
        a = truncated_J(g, ProbeConfig(s=1.7, seed=99))
        b = truncated_J(g, ProbeConfig(s=1.7, seed=99))
        assert a == b
        c = truncated_J(g, ProbeConfig(s=1.7, seed=100))
        assert c.values != a.values

    def test_quadrature_matches_monte_carlo(self):
        g = theta_graph()
        mc = truncated_J(g, ProbeConfig(s=2.0))
        gl = truncated_J(g, ProbeConfig(s=2.0, method="tensor_quadrature"))
        assert gl.values == pytest.approx(mc.values, rel=2e-2)
        assert gl.verdict == mc.verdict == "saturating"

    def test_edgeless_rejected(self):
        g = parse_graph('{"vertices": [{"id": 0}], "edges": []}')
        with pytest.raises(ValueError, match="at least one edge"):
            truncated_J(g, ProbeConfig(s=2.0))

    @pytest.mark.parametrize("method", ["monte_carlo", "tensor_quadrature"])
    def test_overflowing_grid_rejected(self, method):
        # F grows like R^(5/2) on the triangle at s = 1/2, so R = 1e300
        # overflows float: the verdict would hold inf and nan
        cfg = ProbeConfig(s=0.5, r_grid=(10.0, 100.0, 1e300), method=method)
        with pytest.raises(ValueError, match="not finite"):
            truncated_J(make_ngon(3), cfg)

    def test_quadrature_guard(self):
        from modgraph import make_doubled_2ngon

        g = make_doubled_2ngon(2)  # 6 edges
        with pytest.raises(ValueError, match="quadrature"):
            truncated_J(g, ProbeConfig(s=3.0, method="tensor_quadrature"))

    def test_edge_guard(self):
        from modgraph import make_doubled_2ngon

        g = make_doubled_2ngon(3)  # 9 edges
        with pytest.raises(ValueError, match="at most"):
            truncated_J(g, ProbeConfig(s=3.0))

    def test_verdicts_fast_cases(self):
        loop = parse_graph('{"edges": [[0, 0]]}')
        assert truncated_J(loop, ProbeConfig(s=1.5)).verdict == "saturating"
        theta = theta_graph()
        assert truncated_J(theta, ProbeConfig(s=1.5)).verdict == "diverging"
        assert truncated_J(theta, ProbeConfig(s=2.0)).verdict == "saturating"

    @pytest.mark.parametrize("maker", ["P2", "P5", "K4", "doubled_square"])
    def test_verdicts_consistent_with_threshold(self, maker):
        # diverging at s = c, saturating at s = c + 1/2, on probe-sized
        # corpus graphs up to 6 edges
        from modgraph import CographicMatroid, density, make_doubled_2ngon
        from modgraph.selftest import k4_graph

        g = {
            "P2": make_ngon(2),
            "P5": make_ngon(5),
            "K4": k4_graph(),
            "doubled_square": make_doubled_2ngon(2),
        }[maker]
        c = float(density(CographicMatroid(g)).m)
        assert truncated_J(g, ProbeConfig(s=c)).verdict == "diverging"
        assert truncated_J(g, ProbeConfig(s=c + 0.5)).verdict == "saturating"

    def test_scaling_doubled_coefficients(self):
        # duplicating every monomial evaluates 2*psi, so the integral picks
        # up exactly 2^(-s) under quadrature weights
        g = theta_graph()
        s = 1.75
        supports = psi_trees(g).supports()
        lo, hi = [0.0] * 3, [4.0] * 3
        rule = np.polynomial.legendre.leggauss(24)
        ((base, _),) = _gl_region(supports, (s,), lo, hi, rule)
        ((doubled, _),) = _gl_region(supports + supports, (s,), lo, hi, rule)
        assert doubled == pytest.approx(2.0 ** (-s) * base, rel=1e-12)


class TestFrozenOutputs:
    """Exact outputs of the per-stratum implementation, kept bit for bit.

    Recorded as float reprs before the strata were batched into blocks;
    any change to a random stream, the strata, the summation order or a
    product order shows up here as a mismatch.
    """

    GRAPHS = {
        "theta": theta_graph,
        "K4": k4_graph,
        "P6": lambda: make_ngon(6),
        "banana4": lambda: Multigraph(((0, 0), (1, 0)), ((0, 1),) * 4),
    }

    EXPECTED = {
        ("monte_carlo", "theta", 1.5, DEFAULT_SEED): GrowthVerdict(
            values=(
                7.519654936582261, 17.379611840232954, 28.905370662172608,
                41.07661116608905,
            ),
            stderrs=(
                0.0024241638919966675, 0.006073375706870998, 0.011943905072339212,
                0.020067765629492182,
            ),
            increments=(9.859956903650692, 11.525758821939654, 12.171240503916442),
            ratios=(1.1689461662527338, 1.0560034000319436),
            verdict="diverging",
            decay_ratio=1.0560034000319436,
        ),
        ("monte_carlo", "theta", 1.5, 1): GrowthVerdict(
            values=(
                7.510103848323735, 17.38159186518675, 28.89684585358602,
                41.08093764027651,
            ),
            stderrs=(
                0.0024229263670276333, 0.006063531482880875, 0.011901892460972795,
                0.02013394754405487,
            ),
            increments=(9.871488016863013, 11.51525398839927, 12.184091786690491),
            ratios=(1.1665165341565815, 1.0580827656050855),
            verdict="diverging",
            decay_ratio=1.0580827656050855,
        ),
        ("monte_carlo", "theta", 2.0, DEFAULT_SEED): GrowthVerdict(
            values=(
                0.6856393717434341, 0.8248794197478412, 0.856380744888481,
                0.8623785419200024,
            ),
            stderrs=(
                0.00047533657160667587, 0.00048591219671461976, 0.0004869788070144312,
                0.00048704605624716533,
            ),
            increments=(0.13924004800440704, 0.0315013251406399, 0.005997797031521363),
            ratios=(0.22623753433094812, 0.1903982453037697),
            verdict="saturating",
            decay_ratio=0.1903982453037697,
        ),
        ("monte_carlo", "theta", 2.0, 1): GrowthVerdict(
            values=(
                0.6849852446157854, 0.8243121373779116, 0.8558040522929828,
                0.8618001014117214,
            ),
            stderrs=(
                0.00047198794517787444, 0.0004827386005017338, 0.00048379709411552993,
                0.0004838655388361066,
            ),
            increments=(0.13932689276212623, 0.03149191491507124, 0.005996049118738484),
            ratios=(0.22602897610612477, 0.19039963542734348),
            verdict="saturating",
            decay_ratio=0.19039963542734348,
        ),
        ("monte_carlo", "K4", 2.0, DEFAULT_SEED): GrowthVerdict(
            values=(
                3.5876174944529504, 13.126950224433106, 26.13273001280971,
                40.50590603681712,
            ),
            stderrs=(
                0.0048202323098414405, 0.03216521922168506, 0.09025864227573689,
                0.19043570879814256,
            ),
            increments=(9.539332729980156, 13.005779788376605, 14.373176024007417),
            ratios=(1.3633846471779016, 1.105137581742916),
            verdict="diverging",
            decay_ratio=1.105137581742916,
        ),
        ("monte_carlo", "K4", 2.0, 1): GrowthVerdict(
            values=(
                3.590222633474047, 13.15317229541961, 26.13026061386173,
                40.31030640610189,
            ),
            stderrs=(
                0.004857485263535784, 0.03244743779137376, 0.08889240711537305,
                0.1848239998828079,
            ),
            increments=(9.562949661945563, 12.977088318442119, 14.180045792240161),
            ratios=(1.3570173196751887, 1.0926985656781332),
            verdict="diverging",
            decay_ratio=1.0926985656781332,
        ),
        ("monte_carlo", "K4", 2.5, DEFAULT_SEED): GrowthVerdict(
            values=(
                0.0472080967728835, 0.062285599935383615, 0.06437528834767686,
                0.06456435166366795,
            ),
            stderrs=(
                0.0001305936750380935, 0.00014296440250646342, 0.00014358263913068084,
                0.00014359365389419386,
            ),
            increments=(
                0.01507750316250012, 0.00208968841229325, 0.00018906331599108142,
            ),
            ratios=(0.13859644994077006, 0.09047440512128839),
            verdict="saturating",
            decay_ratio=0.09047440512128839,
        ),
        ("monte_carlo", "K4", 2.5, 1): GrowthVerdict(
            values=(
                0.04744277790600174, 0.06250767088913817, 0.06458690124819139,
                0.0647755827981973,
            ),
            stderrs=(
                0.00012820176053275707, 0.00014071904788647542, 0.00014130516492587056,
                0.00014131622770492984,
            ),
            increments=(
                0.015064892983136433, 0.00207923035905322, 0.00018868155000590785,
            ),
            ratios=(0.13801826281678203, 0.09074586141182751),
            verdict="saturating",
            decay_ratio=0.09074586141182751,
        ),
        ("monte_carlo", "P6", 6.0, DEFAULT_SEED): GrowthVerdict(
            values=(
                0.00907468143833124, 0.024083400203031045, 0.04069295383683161,
                0.05835849080889402,
            ),
            stderrs=(
                2.1750768528038477e-05, 0.00011728539414161862, 0.0002976954729057872,
                0.0005930119718876927,
            ),
            increments=(
                0.015008718764699804, 0.016609553633800563, 0.01766553697206241,
            ),
            ratios=(1.1066603281864331, 1.0635768643482937),
            verdict="diverging",
            decay_ratio=1.0635768643482937,
        ),
        ("monte_carlo", "P6", 6.0, 1): GrowthVerdict(
            values=(
                0.009082677665054984, 0.024262036193830105, 0.04038890776247203,
                0.05732657495815673,
            ),
            stderrs=(
                2.1955669209128514e-05, 0.00011818380306997824, 0.00028367660486619425,
                0.0005582421056185387,
            ),
            increments=(0.015179358528775123, 0.01612687156864193, 0.0169376671956847),
            ratios=(1.0624211515967972, 1.0502760639961524),
            verdict="diverging",
            decay_ratio=1.0502760639961524,
        ),
        ("monte_carlo", "P6", 6.5, DEFAULT_SEED): GrowthVerdict(
            values=(
                0.0012026422413850967, 0.001992507636332125, 0.002323643404119003,
                0.0024549218329440433,
            ),
            stderrs=(
                3.460082736182604e-06, 6.910073930400211e-06, 9.055696418815298e-06,
                9.8706381197279e-06,
            ),
            increments=(
                0.0007898653949470286, 0.00033113576778687757, 0.00013127842882504058,
            ),
            ratios=(0.4192306308204385, 0.39644895416291226),
            verdict="saturating",
            decay_ratio=0.39644895416291226,
        ),
        ("monte_carlo", "P6", 6.5, 1): GrowthVerdict(
            values=(
                0.0012071558292305895, 0.0020066690983745776, 0.0023272542031366732,
                0.002452012925124,
            ),
            stderrs=(
                3.4955204645206495e-06, 6.978490556649644e-06, 8.696881282883239e-06,
                9.418289643200256e-06,
            ),
            increments=(
                0.0007995132691439882, 0.0003205851047620955, 0.0001247587219873265,
            ),
            ratios=(0.40097533979058925, 0.3891594466932869),
            verdict="saturating",
            decay_ratio=0.3891594466932869,
        ),
        ("tensor_quadrature", "banana4", 4 / 3, None): GrowthVerdict(
            values=(
                23.716545630019084, 76.83193003980259, 155.9123311087477,
                251.42766250557406,
            ),
            stderrs=(0.0, 0.0, 0.0, 0.0),
            increments=(53.115384409783495, 79.08040106894511, 95.51533139682637),
            ratios=(1.4888417347946188, 1.2078255813795469),
            verdict="diverging",
            decay_ratio=1.2078255813795469,
        ),
        ("tensor_quadrature", "theta", 2.0, None): GrowthVerdict(
            values=(
                0.6850254853071648, 0.8242842064505214, 0.8557913407588928,
                0.8617920461146491,
            ),
            stderrs=(0.0, 0.0, 0.0, 0.0),
            increments=(0.13925872114335652, 0.03150713430837149, 0.006000705355756246),
            ratios=(0.22624891317174478, 0.19045544723379842),
            verdict="saturating",
            decay_ratio=0.19045544723379842,
        ),
    }

    @pytest.mark.parametrize("key", list(EXPECTED), ids=lambda k: "-".join(map(str, k)))
    def test_bit_identical(self, key):
        method, name, s, seed = key
        seed = DEFAULT_SEED if seed is None else seed  # quadrature ignores it
        cfg = ProbeConfig(s=s, method=method, seed=seed)
        assert truncated_J(self.GRAPHS[name](), cfg) == self.EXPECTED[key]

    # Recorded the same way from the per-stratum implementation, before the
    # stream set-up was batched and the quadrature grid broadcast: a
    # multi-word and a 200-bit seed, seed 0, two points per stratum, and
    # quadrature at 1 and 2 dimensions.
    CONFIG_GRAPHS = {
        **GRAPHS,
        "loop": lambda: parse_graph('{"edges": [[0, 0]]}'),
        "banana2": lambda: Multigraph(((0, 0), (1, 0)), ((0, 1),) * 2),
    }

    EXPECTED_CONFIG = {
        ("monte_carlo", "theta", 1.5, 2**64 + 3, 100_000): GrowthVerdict(
            values=(
                7.513211660099237, 17.380778649066155, 28.895731813435177,
                41.094303236594456,
            ),
            stderrs=(
                0.0024128540578884994, 0.006041954228175395, 0.011920704608045597,
                0.019990700103975138,
            ),
            increments=(9.867566988966917, 11.514953164369022, 12.198571423159281),
            ratios=(1.1669495811119472, 1.0593678714131114),
            verdict="diverging",
            decay_ratio=1.0593678714131114,
        ),
        ("monte_carlo", "theta", 2.0, 2**200 + 7, 100_000): GrowthVerdict(
            values=(
                0.6849368855733609, 0.8241855107507763, 0.8556439958922766,
                0.8616517960743569,
            ),
            stderrs=(
                0.0004731677311761636, 0.0004837474573903602, 0.0004848109653152857,
                0.0004848797231192142,
            ),
            increments=(0.13924862517741549, 0.03145848514150025, 0.00600780018208039),
            ratios=(0.22591594783373453, 0.19097550804043192),
            verdict="saturating",
            decay_ratio=0.19097550804043192,
        ),
        ("monte_carlo", "K4", 2.5, 0, 100_000): GrowthVerdict(
            values=(
                0.04713890014908858, 0.06213610054620382, 0.06421396328311789,
                0.06440171226416955,
            ),
            stderrs=(
                0.00012616628824299188, 0.00013957767355567946,
                0.00014016161925777223, 0.0001401724091671249,
            ),
            increments=(
                0.014997200397115237, 0.0020778627369140773, 0.00018774898105165287,
            ),
            ratios=(0.13855004146732355, 0.09035677752731969),
            verdict="saturating",
            decay_ratio=0.09035677752731969,
        ),
        ("monte_carlo", "K4", 2.0, 1, 1000): GrowthVerdict(
            values=(
                3.6459666781615403, 13.247223559233765, 25.83585372216313,
                39.58945351827013,
            ),
            stderrs=(
                0.04298080535471777, 0.11625286499141586, 0.28087829315360024,
                0.6106199166992412,
            ),
            increments=(9.601256881072224, 12.588630162929366, 13.753599796107007),
            ratios=(1.3111439802997464, 1.0925414138075333),
            verdict="diverging",
            decay_ratio=1.0925414138075333,
        ),
        ("tensor_quadrature", "loop", 1.5, None, 100_000): GrowthVerdict(
            values=(
                1.7293294335267753, 1.9004258632642728, 1.9633687222225322,
                1.9865241060018297,
            ),
            stderrs=(0.0, 0.0, 0.0, 0.0),
            increments=(0.1710964297374975, 0.06294285895825953, 0.023155383779297427),
            ratios=(0.36787944117144233, 0.3678794411714423),
            verdict="saturating",
            decay_ratio=0.3678794411714423,
        ),
        ("tensor_quadrature", "banana2", 1.5, None, 100_000): GrowthVerdict(
            values=(
                12.195665973147761, 41.60551125512068, 122.34782539861999,
                342.1237603032225,
            ),
            stderrs=(0.0, 0.0, 0.0, 0.0),
            increments=(29.40984528197292, 80.74231414349931, 219.77593490460254),
            ratios=(2.745417847981376, 2.7219424812868955),
            verdict="diverging",
            decay_ratio=2.7219424812868955,
        ),
    }

    @pytest.mark.parametrize(
        "key", list(EXPECTED_CONFIG), ids=lambda k: "-".join(map(str, k))
    )
    def test_bit_identical_config(self, key):
        method, name, s, seed, samples = key
        seed = DEFAULT_SEED if seed is None else seed
        cfg = ProbeConfig(s=s, method=method, seed=seed, samples=samples)
        assert truncated_J(self.CONFIG_GRAPHS[name](), cfg) == self.EXPECTED_CONFIG[key]

    # model_integral's sum mode at non-integer s: 48-node quadrature
    EXPECTED_SUM = {
        (1, 1.5): 1.9004258632642774,
        (2, 2.5): 0.857147465279153,
        (3, 3.5): 0.2694198821823962,
        (4, 4.25): 0.18426097250717657,
    }

    @pytest.mark.parametrize("n,s", sorted(EXPECTED_SUM))
    def test_model_sum_bit_identical(self, n, s):
        assert model_integral(n, "sum", s, math.exp(6.0)) == self.EXPECTED_SUM[(n, s)]


class TestReferenceKernels:
    """The region kernels against straightforward loop versions, exactly.

    The references draw each stratum with its own SeedSequence, generator
    and uniform call, and evaluate the quadrature on the materialised
    (nodes^dim, dim) point array; the arithmetic is the same, so the
    results must be equal, not merely close.
    """

    @staticmethod
    def _f(supports, s, u):
        y = np.exp(u.T)
        psi = sum(np.prod(y[list(t)], axis=0) for t in supports)
        return np.exp(u.sum(axis=1)) * psi ** (-s)

    def _mc(self, supports, s, lo, hi, samples, seed, region):
        dim = len(lo)
        splits = probe._strata_per_axis(dim)
        n_strata = splits**dim
        per = max(2, samples // n_strata)
        widths = [(h - l) / splits for l, h in zip(lo, hi)]
        total = var_total = 0.0
        for stratum in range(n_strata):
            digits = [stratum // splits**d % splits for d in range(dim)]
            cell_lo = [l + k * w for l, k, w in zip(lo, digits, widths)]
            cell_hi = [l + (k + 1) * w for l, k, w in zip(lo, digits, widths)]
            vol = math.prod(h - l for l, h in zip(cell_lo, cell_hi))
            seq = np.random.SeedSequence(seed, spawn_key=(region, stratum))
            rng = np.random.Generator(np.random.PCG64(seq))
            f = self._f(supports, s, rng.uniform(cell_lo, cell_hi, size=(per, dim)))
            total += vol * f.mean()
            var_total += vol * vol * f.var(ddof=1) / per
        return total, math.sqrt(var_total)

    def _gl(self, supports, s, lo, hi, nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        axes = [(h + l) / 2.0 + (h - l) / 2.0 * x for l, h in zip(lo, hi)]
        u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        f = self._f(supports, s, u.reshape(-1, len(lo)))
        wprod = 1.0
        for l, h in zip(lo, hi):
            wprod = np.multiply.outer(wprod, (h - l) / 2.0 * w)
        return float(np.sum(f * np.ravel(wprod))), 0.0

    @staticmethod
    def _case(dim, salt):
        rng = np.random.default_rng([dim, salt])
        lo = rng.uniform(0.0, 3.0, dim).tolist()
        hi = (np.array(lo) + rng.uniform(0.5, 4.0, dim)).tolist()
        supports = [tuple(sorted(rng.choice(dim, rng.integers(1, dim + 1),
                                            replace=False).tolist()))
                    for _ in range(3)]
        return supports, lo, hi

    @pytest.mark.parametrize("dim", range(1, PROBE_MAX_EDGES + 1))
    @pytest.mark.parametrize("samples, seed, region", [
        (1000, 0, 0), (5000, 2**64 + 3, 7), (3000, (1 << 199) + 1, 2**33 + 1),
        (150_000, 2**40 + 5, 18),
    ], ids=["one-word-seed", "three-word-seed", "seven-word-seed", "multi-block"])
    def test_monte_carlo(self, dim, samples, seed, region):
        # several exponents on one set of points, each equal to the reference
        # at that exponent; 1.0 takes numpy's reciprocal path for ** -1.0.
        # At 150,000 samples every dim spans three blocks, the last partial.
        supports, lo, hi = self._case(dim, samples)
        exponents = (1.7, 1.0, 2.6)
        args = (lo, hi, samples, seed, region)
        assert probe._mc_region(supports, exponents, *args) == [
            self._mc(supports, s, *args) for s in exponents]
        assert probe._mc_region(supports, (2.6,), *args) == [
            self._mc(supports, 2.6, *args)]

    @pytest.mark.parametrize("nodes, dim", [
        (nodes, dim) for nodes in (1, 7, 20, 32)
        for dim in range(1, probe.QUADRATURE_MAX_EDGES + 1)
    ] + [(25, 4), (48, 1), (48, 2), (48, 3)])
    def test_quadrature(self, nodes, dim):
        # 25 nodes in 4 and 48 in 3 dimensions end in a partial block; several
        # exponents share one pass, each equal to the reference at it
        supports, lo, hi = self._case(dim, nodes)
        rule = np.polynomial.legendre.leggauss(nodes)
        exponents = (2.3, 1.0, 3.1)
        assert _gl_region(supports, exponents, lo, hi, rule) == [
            self._gl(supports, s, lo, hi, nodes) for s in exponents]
        assert _gl_region(supports, (2.3,), lo, hi, rule) == [
            self._gl(supports, 2.3, lo, hi, nodes)]

    @pytest.mark.parametrize("name", ["K4", "theta", "P6"])
    def test_analyze_payload_matches_separate_calls(self, name):
        g = {"K4": k4_graph, "theta": theta_graph, "P6": lambda: make_ngon(6)}[name]()
        report = analyze(g, with_probe=True, probe_seed=7)
        c = float(report.c)
        for label, s in (("at_threshold", c), ("above_threshold", c + 0.5)):
            cfg = ProbeConfig(s=s, seed=7)
            verdict = truncated_J(report.core, cfg)
            assert report.probe[label] == {
                "s": s,
                "method": "monte_carlo",
                "seed": 7,
                "grid": list(cfg.r_grid),
                "values": list(verdict.values),
                "stderrs": list(verdict.stderrs),
                "increments": list(verdict.increments),
                "ratios": list(verdict.ratios),
                "decay_ratio": verdict.decay_ratio,
                "verdict": verdict.verdict,
            }

    @pytest.mark.parametrize("method", ["monte_carlo", "tensor_quadrature"])
    def test_s_values_match_separate_calls(self, method):
        cfg = ProbeConfig(s=9.0, method=method, samples=2000)
        exponents = (1.5, 1.0, 2.0)
        assert truncated_J(theta_graph(), cfg, s_values=exponents) == tuple(
            truncated_J(theta_graph(), ProbeConfig(s=s, method=method,
                                                   samples=2000))
            for s in exponents)


class TestBlocks:
    @staticmethod
    def _record(monkeypatch):
        sizes = []

        def integrand(supports, s_values, usum, ys, scratch, reduce):
            sizes.append(usum.shape[0])
            return [reduce(np.ones(usum.shape[0])) for _ in s_values]

        monkeypatch.setattr(probe, "_integrand", integrand)
        return sizes

    @pytest.mark.parametrize("dim", range(1, PROBE_MAX_EDGES + 1))
    def test_blocks_bounded_at_samples_ceiling(self, monkeypatch, dim):
        sizes = self._record(monkeypatch)
        supports = [tuple(range(dim))]
        probe._mc_region(supports, (2.0,), [0.0] * dim, [1.0] * dim, MAX_SAMPLES, 5, 0)
        n_strata = probe._strata_per_axis(dim) ** dim
        assert max(sizes) <= BLOCK_POINTS
        assert sum(sizes) == n_strata * max(2, MAX_SAMPLES // n_strata)

    def test_point_count_unchanged(self, monkeypatch):
        # the per-stratum sum over the 19 regions of the K4 probe
        sizes = self._record(monkeypatch)
        truncated_J(k4_graph(), ProbeConfig(s=2.5))
        assert sum(sizes) == 388_557
        assert max(sizes) <= BLOCK_POINTS

    def test_analyze_probe_draws_each_point_once(self, monkeypatch):
        # both exponents of the payload are evaluated on one set of points
        sizes = self._record(monkeypatch)
        analyze(k4_graph(), with_probe=True)
        assert sum(sizes) == 388_557

    @pytest.mark.parametrize("dim", range(1, probe.QUADRATURE_MAX_EDGES + 1))
    @pytest.mark.parametrize("nodes", [1, 20, 32, 48])
    def test_quadrature_blocks_bounded(self, monkeypatch, dim, nodes):
        sizes = self._record(monkeypatch)
        rule = np.polynomial.legendre.leggauss(nodes)
        ests = _gl_region([tuple(range(dim))], (2.0, 3.0), [0.0] * dim,
                          [1.0] * dim, rule)
        assert max(sizes) <= max(BLOCK_POINTS, nodes ** (dim - 1))
        assert sum(sizes) == nodes**dim
        # every point's weight lands in the buffers: the weights sum to 1
        assert [est for est, _ in ests] == [pytest.approx(1.0, rel=1e-12)] * 2

    def test_quadrature_memory_is_a_few_rows(self):
        # 48^4 points in one-row blocks of 48^3: the coordinate sum, the
        # weight products, psi and exp(sum u) take a row each; one
        # full-grid buffer alone (42 MB) would be eight times the bound
        supports = psi_trees(make_ngon(4)).supports()
        rule = np.polynomial.legendre.leggauss(48)  # model_integral's rule
        tracemalloc.start()
        try:
            _gl_region(supports, (2.5,), [0.0] * 4, [4.0] * 4, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 48**3 * 8

    @pytest.mark.parametrize("dim, graph", [(1, None), (3, theta_graph),
                                            (5, None), (6, k4_graph)])
    def test_monte_carlo_memory_is_a_few_blocks(self, dim, graph):
        # a block holds at most BLOCK_POINTS coordinates or one stratum
        # (205,760 coordinates at dim 5, the largest); its draws and its
        # variable-major copy take one such buffer each, its coordinate
        # sum, psi, exp(sum u) and the term products (then f) at most
        # BLOCK_POINTS values each.  Blocks of four dim-6 strata, as the
        # old point bound allowed, are past it.
        supports = psi_trees(graph()).supports() if graph else [(0,)]
        tracemalloc.start()
        try:
            probe._mc_region(supports, (2.0, 3.0), [0.0] * dim, [1.0] * dim,
                             MAX_SAMPLES, 5, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per = MAX_SAMPLES // probe._strata_per_axis(dim) ** dim
        coords = max(BLOCK_POINTS, per * dim)
        assert peak < (2 * coords + 6 * BLOCK_POINTS) * 8

    @pytest.mark.parametrize("graph, method", [
        (k4_graph, "monte_carlo"), (lambda: make_ngon(4), "tensor_quadrature")])
    def test_buffers_allocated_once_per_call(self, monkeypatch, graph, method):
        # K4's shells hold more points per block than its first region
        # (10,912 against 10,823), yet reuse the first region's buffers
        allocated = []

        class Scratch(probe._Scratch):
            def __setitem__(self, name, buf):
                allocated.append(name)
                super().__setitem__(name, buf)

        monkeypatch.setattr(probe, "_Scratch", Scratch)
        truncated_J(graph(), ProbeConfig(s=2.5, method=method),
                    s_values=(2.5, 3.0))
        assert len(allocated) == len(set(allocated)) >= 5

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep a region's block arrays alive until the
        # collector runs
        gc.collect()
        gc.disable()
        try:
            for method in ("monte_carlo", "tensor_quadrature"):
                truncated_J(theta_graph(), ProbeConfig(s=2.0, method=method,
                                                       samples=2000))
            analyze(k4_graph(), with_probe=True)
            model_integral(2, "sum", 2.5, math.exp(4.0))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPairwiseSum:
    @pytest.mark.parametrize("m", [1, 7, 8, 127, 128, 129, 2**16 - 1,
                                   2**16 + 1, 3 * 48**3, 10**6 + 3])
    def test_equals_numpy_sum(self, m):
        # three arrays fed at once, each in parts of its own random sizes:
        # runs of a few values (a 128-value node spans several), and runs
        # past BLOCK_POINTS
        rng = np.random.default_rng(m)
        arrays = [rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 6, m)
                  for _ in range(3)]
        sums = [_PairwiseSum(m) for _ in arrays]
        starts = [0] * len(arrays)
        while any(start < m for start in starts):
            for i, a in enumerate(arrays):
                if starts[i] < m:
                    cap = 200 if rng.random() < 0.5 else 1 << 17
                    end = min(m, starts[i] + int(rng.integers(1, cap)))
                    sums[i].add(a[starts[i]:end].copy())
                    starts[i] = end
        assert [s.total() for s in sums] == [float(np.sum(a)) for a in arrays]


class TestSValues:
    def test_underflow_names_the_failing_exponent(self):
        for exponents in ((2.0, 1e6), (1e6, 2.0)):
            with pytest.raises(ValueError,
                               match=r"underflow to 0\.0 at s = 1000000\.0;"):
                truncated_J(theta_graph(), ProbeConfig(s=2.0), s_values=exponents)

    def test_first_failure_in_order_wins(self):
        # on this grid F overflows at s = 1/2 and its increments underflow at
        # s = 1e6; the first exponent given raises what a call at it raises
        cfg = ProbeConfig(s=2.0, r_grid=(10.0, 100.0, 1e300), samples=1000)
        for exponents in ((0.5, 1e6), (1e6, 0.5)):
            with pytest.raises(ValueError) as single:
                truncated_J(make_ngon(3), replace(cfg, s=exponents[0]))
            with pytest.raises(ValueError) as multi:
                truncated_J(make_ngon(3), cfg, s_values=exponents)
            assert str(multi.value) == str(single.value)

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.inf, math.nan, True, "2"])
    def test_bad_exponent_rejected_as_config_does(self, bad):
        with pytest.raises(ValueError) as expected:
            ProbeConfig(s=bad)
        with pytest.raises(ValueError) as got:
            truncated_J(theta_graph(), ProbeConfig(s=2.0), s_values=(2.0, bad))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [(), [], 2.0, {2.0}])
    def test_s_values_must_be_a_non_empty_sequence(self, bad):
        with pytest.raises(ValueError, match="s_values"):
            truncated_J(theta_graph(), ProbeConfig(s=2.0), s_values=bad)


class TestModelIntegral:
    def test_product_closed_form(self):
        r = math.exp(6.0)
        assert model_integral(1, "product", 2.0, r) == pytest.approx(
            1.0 - math.exp(-6.0), rel=1e-12
        )
        assert model_integral(3, "product", 1.0, r) == pytest.approx(216.0, rel=1e-12)

    def test_product_limit_one(self):
        assert model_integral(1, "product", 2.0, 1e9) == pytest.approx(1.0, abs=1e-8)

    # Frozen oracle values from nested adaptive quadrature of the sum-mode
    # integrand over [1, e^4]^n (independent of the antiderivative engine).
    ORACLE = {
        (1, 1): 4.0,
        (1, 2): 0.9816843611112658,
        (2, 2): 2.650005494715729,
        (2, 3): 0.23659269976009198,
        (3, 3): 1.000569467463647,
        (3, 4): 0.05024116647686986,
    }

    @pytest.mark.parametrize("n,s", sorted(ORACLE))
    def test_sum_integer_matches_oracle(self, n, s):
        r = math.exp(4.0)
        assert model_integral(n, "sum", float(s), r) == pytest.approx(
            self.ORACLE[(n, s)], rel=1e-6
        )

    # Non-integer exponents go through quadrature; frozen the same way.
    ORACLE_QUAD = {
        (2, 2.5): 0.712770566619546,
        (3, 3.5): 0.205989573462585,
    }

    @pytest.mark.parametrize("n,s", sorted(ORACLE_QUAD))
    def test_sum_quadrature_matches_oracle(self, n, s):
        r = math.exp(4.0)
        assert model_integral(n, "sum", s, r) == pytest.approx(
            self.ORACLE_QUAD[(n, s)], rel=1e-6
        )

    def test_sum_log_divergence_at_boundary(self):
        # increments roughly constant per unit of log R at s = n
        vals = [model_integral(2, "sum", 2.0, math.exp(k)) for k in (4, 6, 8, 10)]
        inc = [b - a for a, b in zip(vals, vals[1:])]
        assert inc[2] / inc[1] == pytest.approx(1.0, abs=0.05)

    def test_sum_convergent_above_boundary(self):
        vals = [model_integral(2, "sum", 3.0, math.exp(k)) for k in (4, 6, 8, 10)]
        inc = [b - a for a, b in zip(vals, vals[1:])]
        assert inc[2] < 0.5 * inc[1]
        assert vals[-1] < 0.3

    @pytest.mark.parametrize("n", [5, 6])
    def test_sum_quadrature_refuses_more_than_four_variables(self, n):
        # a 48^n tensor grid would need gigabytes at n = 5
        with pytest.raises(ValueError, match="at most 4 variables"):
            model_integral(n, "sum", 5.5, math.exp(4.0))

    def test_guards(self):
        with pytest.raises(ValueError):
            model_integral(0, "sum", 2.0, 100.0)
        with pytest.raises(ValueError):
            model_integral(1, "sum", 2.0, 1.5)
        with pytest.raises(ValueError):
            model_integral(1, "geometric", 2.0, 100.0)
        # a non-finite s or R, and an n that is a bool or not an int
        for n, s, R in [(2, math.nan, 100.0), (2, math.inf, 100.0),
                        (2, 2.5, math.nan), (2, 2.5, math.inf),
                        (True, 2.0, 100.0), (2.5, 2.0, 100.0), (2.0, 2.0, 100.0),
                        ("2", 2.0, 100.0), (2, "2", 100.0), (2, 2.0, None)]:
            for mode in ("product", "sum"):
                with pytest.raises(ValueError):
                    model_integral(n, mode, s, R)
