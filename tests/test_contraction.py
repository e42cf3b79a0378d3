import heapq
import itertools
import math
import random
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

import fuzzfix as fx
from conftest import line_space, per_row_piece_table, raises_exactly
from corpus import CORPUS
from fuzzfix.contraction import _float_test, exact_square, failing_rows, image_distances
from fuzzfix.phi import pair_passes
from oracles import DIGITS, dense_grid, exact_distance, exact_pass, exhaustive_g_phi, reference_draws, tau


# ----------------------------------------------------------- sample_pairs


SAMPLED_SPACES = [
    fx.IntervalSpace(-0.75, 2.5),
    fx.EuclideanSpace(2, 1.0),
    fx.EuclideanSpace(3, 0.5),
    fx.EuclideanSpace(2),
    fx.EuclideanSpace(1, 2.0),
]
SAMPLED_IDS = ["interval", "box2", "box3", "plane", "box1"]


def assert_sample_pairs_are_the_space_s_own_draws(space, samples, seed):
    # The extremes first, then pairs of points drawn one at a time from one
    # generator by random.uniform or gauss, not by space.sample.
    rng = random.Random(seed)
    ext = space.extreme_points()
    expected = [(ext[0], ext[1]), (ext[1], ext[0])] if ext else []
    expected += [tuple(reference_draws(space, rng, 2)) for _ in range(samples - len(expected))]
    assert fx.sample_pairs(space, samples, seed) == expected


@pytest.mark.parametrize("space", SAMPLED_SPACES, ids=SAMPLED_IDS)
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_sample_pairs_are_the_space_s_own_draws(space, seed):
    assert_sample_pairs_are_the_space_s_own_draws(space, 50, seed)


@pytest.mark.parametrize("space", SAMPLED_SPACES, ids=SAMPLED_IDS)
@pytest.mark.parametrize("samples", [1, 2, 3])
def test_sample_pairs_at_a_few_samples(space, samples):
    # At 1 and 2 samples the extremes of a bounded space take every slot.
    assert_sample_pairs_are_the_space_s_own_draws(space, samples, 7)


@pytest.mark.parametrize("samples", [1, 24, 25, 26])
@pytest.mark.parametrize("seed", [0, 3])
def test_sample_pairs_take_every_pair_of_a_finite_space(finite5, samples, seed):
    # 5 labels have 25 ordered pairs: all of them, in label order, at fewer,
    # as many or more samples, since a draw could miss the one failing pair.
    assert fx.sample_pairs(finite5, samples, seed) == list(itertools.product(finite5.labels, repeat=2))


# --------------------------------------------------- ContractionReport.of


@pytest.mark.parametrize(
    "space", [fx.IntervalSpace(-1.0, 1.0), fx.EuclideanSpace(2, 1.0), fx.EuclideanSpace(3)], ids=["interval", "box2", "plane"]
)
@pytest.mark.parametrize("count", [3, 64, 65, 300])
def test_report_keeps_the_rows_a_point_key_ranking_keeps(space, count):
    # A continuum row ranks by itself, and equal rows keep their scan
    # order. Each point is a fresh object, so identity tells equal rows apart.
    def fresh(p):
        return tuple(list(p)) if type(p) is tuple else float(repr(p))

    drawn = fx.sample_pairs(space, count, 4)
    rows = [(fresh(x), fresh(y)) for x, y in drawn + drawn[::3] + [drawn[0]] * 5]
    expected = heapq.nsmallest(64, rows, key=lambda row: tuple(map(space.point_key, row)))
    report = fx.ContractionReport.of(space, fx.LinearPhi(0.5), rows, len(rows), lambda x, y: (0.5, 0.5))
    assert [(id(ce.x), id(ce.y)) for ce in report.counterexamples] == [(id(x), id(y)) for x, y in expected]


# ------------------------------------------------------------ check_g_phi


def test_flagship_configuration_passes(flagship_fm, flagship_f, flagship_g, flagship_phi):
    report = fx.check_g_phi(
        flagship_fm, flagship_f, flagship_g, flagship_phi, samples=2000, seed=0
    )
    assert report.passed
    assert report.checked_pairs == 2000
    assert report.method == "threshold-reduction"


def test_halving_map_with_linear_modulus_fails(flagship_fm, flagship_f):
    # f(x) = x/2 under the identity and a linear halving modulus: the
    # crossing for gap d/2 exceeds half the crossing for gap d.
    report = fx.check_g_phi(
        flagship_fm,
        flagship_f,
        fx.identity_for(flagship_fm.space),
        fx.LinearPhi(0.5),
        samples=500,
        seed=0,
    )
    assert not report.passed
    endpoints = [
        ce for ce in report.counterexamples if ce.x == 0.0 and ce.y == 1.0
    ]
    assert endpoints, "extreme pair (0, 1) should be sampled and flagged"
    assert any(abs(ce.t - 0.7) <= 0.1 for ce in endpoints)


def test_counterexamples_replay(flagship_fm, flagship_f):
    space = flagship_fm.space
    g = fx.identity_for(space)
    phi = fx.LinearPhi(0.5)
    report = fx.check_g_phi(flagship_fm, flagship_f, g, phi, samples=200, seed=1)
    assert not report.passed
    for ce in report.counterexamples:
        gx, gy = g.apply(ce.x), g.apply(ce.y)
        fxp, fyp = flagship_f.apply(ce.x), flagship_f.apply(ce.y)
        antecedent = flagship_fm.membership(gx, gy, ce.t)
        scaled = phi.eval(ce.t)
        consequent = flagship_fm.membership(fxp, fyp, scaled)
        assert antecedent == ce.antecedent
        assert consequent == ce.consequent
        assert antecedent > 1.0 - ce.t
        assert not consequent > 1.0 - scaled


def test_constant_map_passes_for_any_modulus(flagship_fm, flagship_g):
    report = fx.check_g_phi(
        flagship_fm,
        fx.ConstantMap(0.25),
        flagship_g,
        fx.LinearPhi(0.9),
        samples=300,
        seed=2,
    )
    assert report.passed


def test_invalid_phi_rejected(flagship_fm, flagship_f, flagship_g):
    bad = fx.TablePhi(((0.0, 0.0), (1.0, 1.5)))
    with pytest.raises(fx.PhiInvalid):
        fx.check_g_phi(flagship_fm, flagship_f, flagship_g, bad, samples=10, seed=0)


def test_non_bijective_g_rejected(flagship_fm, flagship_f, flagship_phi):
    with pytest.raises(fx.NotBijective):
        fx.check_g_phi(
            flagship_fm,
            flagship_f,
            fx.AffineBijection(0.5, 0.0),
            flagship_phi,
            samples=10,
            seed=0,
        )


def test_report_is_deterministic(flagship_fm, flagship_f):
    g = fx.identity_for(flagship_fm.space)
    phi = fx.LinearPhi(0.5)
    a = fx.check_g_phi(flagship_fm, flagship_f, g, phi, samples=300, seed=7)
    b = fx.check_g_phi(flagship_fm, flagship_f, g, phi, samples=300, seed=7)
    assert a == b


@pytest.mark.parametrize(
    "a,passed",
    [
        (0.5, True),
        # Every pair violates the implication just above its crossing,
        # within about 1e-10 of it.
        (0.500000001, False),
        (0.5 * (1.0 + 2e-13), False),
    ],
)
def test_ratio_just_above_the_induced_modulus_fails(flagship_fm, a, passed):
    # induced(0.5, 1) is exactly tight for f(x) = 0.5 x on [0, 1]: any
    # larger ratio breaks the implication at the onset of the antecedent.
    report = fx.check_g_phi(
        flagship_fm, fx.AffineMap(a, 0.0), fx.identity_for(flagship_fm.space),
        fx.InducedPhi(0.5, 1.0), samples=10000, seed=0,
    )
    assert report.passed is passed
    for ce in report.counterexamples:
        assert ce.t == fx.onset(abs(ce.x - ce.y))


# On [0, 1] under the identity, f(x) = x / 4 is exact in floats and the
# extreme pair (0, 1) alone is checked: its crossing tau(1) must carry to
# at least tau(1 / 4). At share 1 the modulus reaches it, by about 2e-17
# for the next float above the linear ratio tau(1 / 4) / tau(1) and 4e-18
# for the step (the ratio itself falls 5e-17 short), which must pass; at
# a share of 1e-14 less it falls short by about 70 ulps, which must fail.
QUARTER = fx.crossing_time(0.25)


@pytest.mark.parametrize(
    "make_phi",
    [lambda v: fx.LinearPhi(math.nextafter(v / fx.onset(1.0), 1.0)), lambda v: fx.TablePhi(((0.0, 0.0), (0.5, v)))],
    ids=["linear", "table"],
)
@pytest.mark.parametrize("share,passed", [(1.0, True), (1.0 - 1e-14, False)])
def test_modulus_just_below_tight_fails(flagship_fm, make_phi, share, passed):
    g = fx.identity_for(flagship_fm.space)
    phi = make_phi(QUARTER * share)
    report = fx.check_g_phi(flagship_fm, fx.AffineMap(0.25, 0.0), g, phi, samples=2, seed=0)
    assert report.checked_pairs == 2
    assert report.passed is passed


@pytest.mark.parametrize("seed", range(5, 10))
def test_rounding_in_the_map_is_no_violation(flagship_fm, seed):
    # 0.5 x + 0.25 rounds, so a float image gap can exceed half the float
    # gap by an ulp although the real map halves every gap exactly.
    g = fx.identity_for(flagship_fm.space)
    phi = fx.InducedPhi(0.5, 1.0)
    report = fx.check_g_phi(flagship_fm, fx.AffineMap(0.5, 0.25), g, phi, samples=10000, seed=seed)
    assert report.passed


def _failing_pairs(a, cap, k=0.5):
    """(report, number of failing pairs) of f(x) = a x on [0, cap] under
    the identity with induced(k, cap), at 2,000 pairs and seed 1. The
    report keeps at most 64 counterexamples, so the count comes from the
    pair kernel, run on the pairs the check samples."""
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, cap), fx.TNorm("product"))
    f, g, phi = fx.AffineMap(a, 0.0), fx.identity_for(fm.space), fx.InducedPhi(k, cap)
    report = fx.check_g_phi(fm, f, g, phi, samples=2000, seed=1)
    pairs = fx.sample_pairs(fm.space, 2000, 1)
    distances = image_distances(fm.space, (g, f), fm.transform, pairs)
    squares = lambda pair: [exact_square(None, m, *pair) for m in (g, f)]  # noqa: E731
    return report, len(failing_rows(phi, pairs, *distances, False, squares))


@pytest.mark.parametrize("cap", [1e2, 1e6, 1e8])
def test_induced_slack_catches_every_pair_at_large_caps(cap):
    # 0.7 x breaks the implication on every pair of distinct points, near
    # tau = 1 by violations that a tolerance as wide as the rounding there
    # would miss: a slope bound of 1 / (1 - t)**2 and distance errors
    # carried as e / tau once let all but 18 pairs pass at cap 1e6.
    report, failing = _failing_pairs(0.7, cap)
    assert not report.passed
    assert failing == report.checked_pairs == 2000


@pytest.mark.parametrize("cap", [1.0, 1e2, 1e6, 1e8, 1e12, 1e15])
def test_induced_modulus_is_tight_at_any_cap(cap):
    report, failing = _failing_pairs(0.5, cap)
    assert report.passed and failing == 0


@pytest.mark.parametrize("k", [0.05, 0.02])
@pytest.mark.parametrize("cap", [1e2, 1e4, 1e6])
def test_steep_induced_modulus_is_tight(k, cap):
    # Near tau = 1 induced(k, cap) rises with slope up to 1 / k, so the
    # float test's margin must carry its rise over the error of the crossing
    # time: without it, up to 540 of these pairs fail.
    report, failing = _failing_pairs(k, cap, k)
    assert report.passed and failing == 0


def test_tie_just_past_the_induced_cap_fails():
    # f(x) = x / 2 with induced(0.5, cap) ties every pair up to the cap. The
    # extreme pair of the cube [-1/2, 1/2]^3 lies sqrt(3) apart, just past
    # the float cap fl(sqrt(3)), where the implication fails by about 5e-18,
    # far below float resolution.
    fm = fx.FuzzyMetric(fx.EuclideanSpace(3, 0.5), fx.TNorm("product"))
    g, phi = fx.identity_for(fm.space), fx.InducedPhi(0.5, math.sqrt(3.0))
    report = fx.check_g_phi(fm, fx.AffineMap(0.5, 0.0), g, phi, samples=200, seed=0)
    assert not report.passed
    assert {(ce.x, ce.y) for ce in report.counterexamples} == set(fx.sample_pairs(fm.space, 2, 0))
    inside = fx.check_g_phi(fm, fx.AffineMap(0.5, 0.0), g, fx.InducedPhi(0.5, 2.0), samples=200, seed=0)
    assert inside.passed


def test_every_pair_just_past_the_critical_distance_fails():
    # f(x) = 0.2 x with linear(0.5) passes the pair (0, y) iff y <= delta*,
    # just below 1 / 6 (fl(0.2) exceeds 1 / 5). Each of the 4,000 floats y
    # above fl(1/6) is checked as the extreme pair of [0, y]: a tolerance
    # as wide as the rounding near delta* once passed 721 of them, up to
    # 728 ulps past it.
    f, phi, y = fx.AffineMap(0.2, 0.0), fx.LinearPhi(0.5), 1.0 / 6.0
    passed = []
    for _ in range(4000):
        y = math.nextafter(y, 1.0)
        fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, y), fx.TNorm("product"))
        report = fx.check_g_phi(fm, f, fx.identity_for(fm.space), phi, samples=2, seed=0)
        passed += [y] if report.passed else []
    assert passed == []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
        g = fx.identity_for(fm.space)
        for y in (math.nextafter(1.0 / 6.0, 1.0), y):
            assert not exact_pass(phi, exact_distance(fm, g, 0.0, y), exact_distance(fm, f, 0.0, y))


@pytest.mark.parametrize(
    "phi,a,hi,escalated",
    [
        # delta* of f = 0.2 x under linear(0.5) lies just below 1/6, and the
        # extreme pair, one float past fl(1/6), fails by a violation below
        # float resolution: the float test cannot decide it either way.
        (fx.LinearPhi(0.5), 0.2, math.nextafter(1.0 / 6.0, 1.0), lambda d_gs: 2),
        # Above its cap an induced modulus's rule has no cuts: every row
        # past the cap takes the float test, and no row below it does.
        (fx.InducedPhi(0.5, 1.0), 0.5, 2.0, lambda d_gs: sum(d > 1.0 for d in d_gs)),
    ],
    ids=["linear-critical-distance", "induced-above-cap"],
)
def test_only_rows_near_a_cut_escalate(monkeypatch, phi, a, hi, escalated):
    # An unnormalized continuum check decides a row off its piece table;
    # only a row whose d_g lies within a cut's enclosure, or above an
    # induced cap, runs the float test (one crossing_time call a row here),
    # and only those the float test leaves undecided reach pair_passes.
    tests, exact = [], []
    crossing = fx.contraction.crossing_time
    monkeypatch.setattr(fx.contraction, "crossing_time", lambda d: tests.append(d) or crossing(d))
    monkeypatch.setattr(fx.contraction, "pair_passes", lambda *args: exact.append(args) or pair_passes(*args))
    space = fx.IntervalSpace(0.0, hi)
    fm, f = fx.FuzzyMetric(space, fx.TNorm("product")), fx.AffineMap(a, 0.0)
    g = fx.identity_for(space)
    report = fx.check_g_phi(fm, f, g, phi, samples=1000, seed=3)
    d_gs = image_distances(space, (g,), None, fx.sample_pairs(space, 1000, 3))[0]
    assert 0 < len(tests) == escalated(d_gs) < report.checked_pairs
    assert len(exact) <= len(tests)
    if isinstance(phi, fx.LinearPhi):
        assert len(exact) == 2 and [(ce.x, ce.y) for ce in report.counterexamples] == [(0.0, hi), (hi, 0.0)]


def test_crossing_on_a_table_breakpoint_goes_to_the_exact_rule():
    # The extreme pair of [0, 2.25] crosses at tau(2.25) = 0.75, the last
    # breakpoint, where the table steps from 0 to 0.5. The float crossing
    # rounds just below it, so the ends of the float test's bracket
    # disagree and it leaves the pair undecided; exactly, phi(0.75) = 0.5
    # exceeds tau(0.225), about 0.37, and the pair passes.
    space = fx.IntervalSpace(0.0, 2.25)
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    phi, f, g = fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5))), fx.AffineMap(0.1, 0.0), fx.identity_for(space)
    pair = (0.0, 2.25)
    (d_g,), (d_f,) = image_distances(space, (g, f), None, [pair])
    assert fx.crossing_time(d_g) < 0.75
    assert _float_test(phi)(d_g, d_f) is None
    assert pair_passes(phi, *(exact_square(None, m, *pair) for m in (g, f)), False)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert exact_pass(phi, exact_distance(fm, g, *pair), exact_distance(fm, f, *pair))
    assert fx.check_g_phi(fm, f, g, phi, samples=2, seed=0).passed


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "phi",
    [fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5))), fx.LinearPhi(0.5), fx.InducedPhi(0.5, 2.0)],
    ids=["table", "linear", "induced"],
)
def test_coincident_finite_rows_share_one_exact_verdict(monkeypatch, phi, normalize):
    # a and b lie at distance 0, written -0.0, so (a, b) is coincident as
    # well as (x, x), and f maps a and b to one label. The check decides
    # each distinct pair of table distances by at most one exact call, and
    # the coincident rows, whose g-distance is 0.0 or -0.0, by one. Each
    # row's verdict is the per-row rule's on the squares of its table
    # floats, and the failing rows are reported in label order.
    labels = ("a", "b", "c", "d")
    dist = ((0.0, -0.0, 1.0, 2.0), (-0.0, 0.0, 1.0, 2.0), (1.0, 1.0, 0.0, 1.0), (2.0, 2.0, 1.0, 0.0))
    space = fx.FiniteSpace(labels, dist, normalize=normalize)
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    f = fx.TableMap({"a": "c", "b": "c", "c": "d", "d": "c"})
    g = fx.PermutationBijection({"a": "b", "b": "a", "c": "d", "d": "c"})
    rows = list(itertools.product(labels, repeat=2))

    def table(m, x, y):
        return space.dist[space.index(m.apply(x))][space.index(m.apply(y))]

    squares = {row: (Fraction(table(g, *row)) ** 2, Fraction(table(f, *row)) ** 2) for row in rows}
    coincident = [row for row in rows if squares[row] == (0, 0)]
    assert len(coincident) == 6
    assert {math.copysign(1.0, table(g, *row)) for row in coincident} == {-1.0, 1.0}
    calls = []
    monkeypatch.setattr(fx.contraction, "pair_passes", lambda *args: calls.append(args[1:3]) or pair_passes(*args))
    report = fx.check_g_phi(fm, f, g, phi)
    assert calls.count((0, 0)) == 1
    assert len(calls) == len(set(calls)) and set(calls) <= set(squares.values())
    failing = [(c.x, c.y) for c in report.counterexamples]
    assert failing == [row for row in rows if not pair_passes(phi, *squares[row], normalize)]
    # A table is 0 right of 0, so it fails every coincident row; the others pass them.
    assert {row for row in coincident if row in failing} == (set(coincident) if isinstance(phi, fx.TablePhi) else set())


def test_one_counterexample_per_failing_pair(flagship_fm, flagship_f):
    g = fx.identity_for(flagship_fm.space)
    report = fx.check_g_phi(flagship_fm, flagship_f, g, fx.LinearPhi(0.5), samples=40, seed=0)
    pairs = [(ce.x, ce.y) for ce in report.counterexamples]
    # Every sampled pair has distinct points, and each fails exactly once.
    assert len(pairs) == len(set(pairs)) == 40


# ------------------------------------------------------ the whole reach

# f = 0.1 x under the rational modulus passes every pair up to its cut at
# 81/22, past the reach of [0, 1] and of the box of diameter 2 sqrt(3);
# f = 0.9 x under linear(0.5), rho >= k, fails every pair of distinct points.
REACH_SPACES = [fx.IntervalSpace(0.0, 1.0), fx.EuclideanSpace(3, 1.0)]
TABLE = fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5)))


def _refuse(*args):
    raise AssertionError("per-row work on a check decided over its whole reach")


@pytest.mark.parametrize("space", REACH_SPACES, ids=["interval", "box3"])
def test_a_check_that_passes_everywhere_draws_no_pair(monkeypatch, space):
    for cls in (fx.IntervalSpace, fx.EuclideanSpace):
        monkeypatch.setattr(cls, "sample", _refuse)
    monkeypatch.setattr(fx.contraction, "image_distances", _refuse)
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    for samples, checked in ((1, 2), (2, 2), (3, 3), (10000, 10000)):
        report = fx.check_g_phi(fm, fx.AffineMap(0.1, 0.0), g, fx.RationalPhi(), samples=samples, seed=0)
        assert report == fx.ContractionReport(True, checked, (), "threshold-reduction")
    raises_exactly(
        lambda: fx.check_g_phi(fm, fx.AffineMap(0.1, 0.0), g, fx.RationalPhi(), samples=0),
        ValueError,
        "samples must be >= 1",
    )


@pytest.mark.parametrize("space", REACH_SPACES, ids=["interval", "box3"])
def test_a_check_that_fails_everywhere_measures_no_distance(monkeypatch, space):
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    f, phi = fx.AffineMap(0.9, 0.0), fx.LinearPhi(0.5)
    expected = {samples: fx.check_g_phi(fm, f, g, phi, samples=samples, seed=4) for samples in (1, 300)}
    # The 64 kept rows are still replayed from their distances, by fm.distance.
    monkeypatch.setattr(fx.contraction, "image_distances", _refuse)
    for samples, report in expected.items():
        assert not report.passed and report.checked_pairs == max(samples, 2)
        assert len(report.counterexamples) == min(report.checked_pairs, 64)
        assert fx.check_g_phi(fm, f, g, phi, samples=samples, seed=4) == report


@pytest.mark.parametrize(
    "f,phi,coincident_fail",
    [(fx.AffineMap(1.0, 0.0), fx.LinearPhi(0.5), False), (fx.ConstantMap(1.0), TABLE, True)],
    ids=["linear", "table"],
)
def test_coincident_pairs_take_the_coincident_rule(monkeypatch, f, phi, coincident_fail):
    # Draws on an interval two floats wide coincide about half the time. A
    # check that fails at every d > 0 fails each pair of distinct points,
    # and a coincident one only where the coincident rule fails: for a table.
    space = fx.IntervalSpace(1.0, math.nextafter(1.0, 2.0))
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    pairs = fx.sample_pairs(space, 40, 0)
    failing = [(x, y) for x, y in pairs if coincident_fail or x != y]
    assert 0 < sum(x == y for x, y in pairs) < len(pairs)
    report = fx.check_g_phi(fm, f, g, phi, samples=40, seed=0)
    assert [(ce.x, ce.y) for ce in report.counterexamples] == sorted(failing)
    monkeypatch.setattr(fx.contraction, "piece_table", per_row_piece_table)
    assert fx.check_g_phi(fm, f, g, phi, samples=40, seed=0) == report


def test_a_reach_that_ends_on_an_induced_cap_draws_no_pair(
    monkeypatch, flagship_fm, flagship_f, flagship_g, flagship_phi
):
    # The flagship's reach [0, 1] ends exactly on the cap of induced(0.5, 1),
    # whose float enclosure is undecided: only the exact reach D**2 = 1
    # decides it over the whole reach, with no pair drawn or measured.
    monkeypatch.setattr(fx.IntervalSpace, "sample", _refuse)
    monkeypatch.setattr(fx.contraction, "image_distances", _refuse)
    for samples in (1, 2, 2000):
        report = fx.check_g_phi(flagship_fm, flagship_f, flagship_g, flagship_phi, samples=samples, seed=3)
        assert report == fx.ContractionReport(True, max(samples, 2), (), "threshold-reduction")


def test_a_split_reach_keeps_the_per_row_path(monkeypatch):
    # [0, 1] holds pairs on both sides of the cut delta* of f = 0.2 x under
    # linear(0.5), just below 1/6: its rows are decided one by one, and
    # only those past delta* fail.
    space = fx.IntervalSpace(0.0, 1.0)
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    f, phi = fx.AffineMap(0.2, 0.0), fx.LinearPhi(0.5)
    assert fx.contraction.piece_table(phi, abs(Fraction(f.a)), Fraction(1))[2] is None
    tables = []
    piece_table = fx.contraction.piece_table
    monkeypatch.setattr(fx.contraction, "piece_table", lambda *args: tables.append(args) or piece_table(*args))
    report = fx.check_g_phi(fm, f, g, phi, samples=500, seed=0)
    assert len(tables) == 1 and not report.passed
    assert min(abs(ce.x - ce.y) for ce in report.counterexamples) > 1.0 / 6.0 - 1e-9
    assert any(abs(x - y) < 1.0 / 6.0 - 1e-9 for x, y in fx.sample_pairs(space, 500, 0))


# ------------------------------------------------- finite-space oracle


@pytest.mark.parametrize("name,space,f,g,phi", CORPUS, ids=[c[0] for c in CORPUS])
def test_checker_agrees_with_exhaustive_oracle(name, space, f, g, phi):
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    verdict = fx.check_g_phi(fm, f, g, phi, samples=10000, seed=0).passed
    oracle, _ = exhaustive_g_phi(space, f, g, phi, dense_grid(10000))
    assert verdict == oracle


def test_linear_modulus_matches_direct_ratio_form(flagship_fm):
    # With phi(t) = k t the checker is exactly the ratio-form condition:
    # a direct implementation over sampled pairs must agree. A metric
    # slope passes a linear modulus only well below k (near the diagonal
    # the crossing shrinks like sqrt, not linearly), hence 0.1 vs 0.5.
    space = flagship_fm.space
    k = 0.5
    for f, expected in [
        (fx.AffineMap(0.1, 0.5), True),
        (fx.AffineMap(0.5, 0.0), False),
        (fx.ConstantMap(0.7), True),
    ]:
        g = fx.identity_for(space)
        phi = fx.LinearPhi(k)
        report = fx.check_g_phi(flagship_fm, f, g, phi, samples=400, seed=3)
        direct = _direct_ratio_check(flagship_fm, f, g, k, samples=400, seed=3)
        assert report.passed == direct == expected


def _direct_ratio_check(fm, f, g, k, samples, seed):
    """Literal ratio-form check on the same pair plan: for a ladder of
    times above the pair's crossing, membership(gx, gy, t) > 1 - t must
    force membership(fx, fy, k t) > 1 - k t."""
    space = fm.space
    for x, y in fx.sample_pairs(space, samples, seed):
        gx, gy = g.apply(x), g.apply(y)
        fxp, fyp = f.apply(x), f.apply(y)
        t_star = fx.threshold(fm, gx, gy)
        for eta in (1e-3, 1e-6, 1e-9):
            t = t_star + eta
            if fm.membership(gx, gy, t) > 1.0 - t:
                if not fm.membership(fxp, fyp, k * t) > 1.0 - k * t:
                    return False
    return True


# ---------------------------------------------------------- InducedPhi


def test_induce_phi_conjugation_identity_on_grid():
    phi = fx.InducedPhi(0.5, 1.0)
    for i in range(1, 101):
        d = i / 100
        assert abs(phi.eval(tau(d)) - tau(0.5 * d)) <= 1e-9


def test_induce_phi_values():
    phi = fx.InducedPhi(0.5, 1.0)
    assert phi.eval(tau(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert phi.eval(0.0) == 0.0
    assert phi.eval(0.5) == pytest.approx(0.390388, abs=1e-6)


def test_induce_phi_rejects_bad_k():
    for k in (0.0, 1.0, 2.0):
        with pytest.raises(fx.InvalidK):
            fx.InducedPhi(k, 1.0)


def test_induced_modulus_bridges_metric_contraction(flagship_fm):
    # A plain metric halving map becomes a passing fuzzy contraction
    # once the modulus is the crossing-time conjugate.
    space = flagship_fm.space
    f = fx.AffineMap(0.5, 0.25)
    g = fx.identity_for(space)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ctx.traps[Inexact] = True  # each side is exact, or the test errors
        for x, y in fx.sample_pairs(space, 400, 5):
            d_f, d_g = exact_distance(flagship_fm, f, x, y), exact_distance(flagship_fm, g, x, y)
            assert d_f <= Decimal("0.5") * d_g
    fuzzy_side = fx.check_g_phi(
        flagship_fm, f, g, fx.InducedPhi(0.5, 1.0), samples=400, seed=5
    )
    assert fuzzy_side.passed


# ---------------------------------------------------------- raise paths


@pytest.mark.parametrize("space", [fx.IntervalSpace(0.0, 1.0), line_space((0.0, 1.0))], ids=["interval", "finite"])
def test_sample_pairs_needs_a_sample(space):
    raises_exactly(lambda: fx.sample_pairs(space, 0, 0), ValueError, "samples must be >= 1")
