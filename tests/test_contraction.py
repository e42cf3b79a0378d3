import pytest

import fuzzfix as fx
from corpus import CORPUS
from oracles import dense_grid, exhaustive_g_phi, tau


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
        gx, gy = g.apply(space, ce.x), g.apply(space, ce.y)
        fxp, fyp = flagship_f.apply(space, ce.x), flagship_f.apply(space, ce.y)
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
        fx.induce_phi(0.5, 1.0), samples=10000, seed=0,
    )
    assert report.passed is passed
    for ce in report.counterexamples:
        assert ce.t == fx.onset(abs(ce.x - ce.y))


# On [0, 1] under the identity, f(x) = x / 4 is exact in floats and the
# extreme pair (0, 1) alone is checked: its crossing tau(1) must carry to
# at least tau(1 / 4). At share 1 the modulus reaches it to the float,
# which must pass; at a share of 1e-14 less it falls short by about 70
# ulps, 2.2 times the derived slack of the linear modulus and 4.1 times
# that of the step, which must fail.
QUARTER = fx.crossing_time(0.25)


@pytest.mark.parametrize(
    "make_phi",
    [lambda v: fx.LinearPhi(v / fx.onset(1.0)), lambda v: fx.TablePhi(((0.0, 0.0), (0.5, v)))],
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
    phi = fx.induce_phi(0.5, 1.0)
    report = fx.check_g_phi(flagship_fm, fx.AffineMap(0.5, 0.25), g, phi, samples=10000, seed=seed)
    assert report.passed


def test_one_counterexample_per_failing_pair(flagship_fm, flagship_f):
    g = fx.identity_for(flagship_fm.space)
    report = fx.check_g_phi(flagship_fm, flagship_f, g, fx.LinearPhi(0.5), samples=40, seed=0)
    pairs = [(ce.x, ce.y) for ce in report.counterexamples]
    # Every sampled pair has distinct points, and each fails exactly once.
    assert len(pairs) == len(set(pairs)) == 40


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
        gx, gy = g.apply(space, x), g.apply(space, y)
        fxp, fyp = f.apply(space, x), f.apply(space, y)
        t_star = fx.threshold(fm, gx, gy)
        for eta in (1e-3, 1e-6, 1e-9):
            t = t_star + eta
            if fm.membership(gx, gy, t) > 1.0 - t:
                if not fm.membership(fxp, fyp, k * t) > 1.0 - k * t:
                    return False
    return True


# --------------------------------------------------------- metric check


def test_metric_check_passes_exact_halving():
    space = fx.EuclideanSpace(1)
    report = fx.check_metric_phi(
        space,
        fx.AffineMap(1.0, 1.0),
        fx.AffineBijection(2.0, 0.0),
        fx.LinearPhi(0.5),
        samples=500,
        seed=0,
    )
    assert report.passed


def test_metric_check_flags_expansion(unit_interval):
    report = fx.check_metric_phi(
        unit_interval,
        fx.AffineMap(1.0, 0.0),
        fx.identity_for(unit_interval),
        fx.LinearPhi(0.5),
        samples=200,
        seed=0,
    )
    assert not report.passed
    ce = report.counterexamples[0]
    # t holds d(gx, gy); consequent is the actual image distance
    assert ce.consequent > ce.antecedent


def test_metric_check_constant_map(unit_interval):
    report = fx.check_metric_phi(
        unit_interval,
        fx.ConstantMap(0.5),
        fx.identity_for(unit_interval),
        fx.LinearPhi(0.5),
        samples=200,
        seed=0,
    )
    assert report.passed


# ----------------------------------------------------------- induce_phi


def test_induce_phi_conjugation_identity_on_grid():
    phi = fx.induce_phi(0.5, 1.0)
    for i in range(1, 101):
        d = i / 100
        assert abs(phi.eval(tau(d)) - tau(0.5 * d)) <= 1e-9


def test_induce_phi_values():
    phi = fx.induce_phi(0.5, 1.0)
    assert phi.eval(tau(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert phi.eval(0.0) == 0.0
    assert phi.eval(0.5) == pytest.approx(0.390388, abs=1e-6)


def test_induce_phi_rejects_bad_k():
    for k in (0.0, 1.0, 2.0):
        with pytest.raises(fx.InvalidK):
            fx.induce_phi(k, 1.0)


def test_induced_modulus_bridges_metric_contraction(flagship_fm):
    # A plain metric halving map becomes a passing fuzzy contraction
    # once the modulus is the crossing-time conjugate.
    space = flagship_fm.space
    f = fx.AffineMap(0.5, 0.25)
    g = fx.identity_for(space)
    metric_side = fx.check_metric_phi(
        space, f, g, fx.LinearPhi(0.5), samples=400, seed=5
    )
    assert metric_side.passed
    fuzzy_side = fx.check_g_phi(
        flagship_fm, f, g, fx.induce_phi(0.5, 1.0), samples=400, seed=5
    )
    assert fuzzy_side.passed


# ----------------------------------------------------- fuzzy continuity


def test_continuity_constant_map(flagship_fm):
    report = fx.check_fuzzy_continuity(
        flagship_fm, flagship_fm, fx.ConstantMap(0.5), samples=100, seed=0
    )
    assert report.passed


def test_continuity_smooth_map(flagship_fm):
    report = fx.check_fuzzy_continuity(
        flagship_fm, flagship_fm, fx.AffineMap(0.5, 0.0), samples=100, seed=0
    )
    assert report.passed


def test_continuity_of_composed_step(flagship_fm, flagship_f, flagship_g):
    # the solver's step map g^{-1} o f is continuous from the
    # transformed metric into itself
    fm_g = flagship_fm.g_transform(flagship_g)
    step = fx.InverseComposite(flagship_g, flagship_f)
    report = fx.check_fuzzy_continuity(fm_g, fm_g, step, samples=100, seed=0)
    assert report.passed


def test_continuity_detects_jump_across_tiny_gap():
    # Two points declared almost coincident whose images are far apart:
    # no admissible source level exists above the grid floor.
    space = fx.FiniteSpace(
        ("a", "b", "c"),
        ((0.0, 1e-20, 1.0), (1e-20, 0.0, 1.0), (1.0, 1.0, 0.0)),
    )
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    jump = fx.TableMap({"a": "a", "b": "c", "c": "c"})
    report = fx.check_fuzzy_continuity(fm, fm, jump, samples=10, seed=0)
    law = report.law("fuzzy_continuity")
    assert not law.passed
    assert any(w[0] == "a" for w in law.witnesses)
