import math
import random
from decimal import Decimal, Inexact, localcontext

import pytest

import fuzzfix as fx
from corpus import CORPUS
from fuzzfix import contraction
from fuzzfix.contraction import consequent_fails, slack_cap
from oracles import DIGITS, dense_grid, exact_distance, exhaustive_g_phi, tau


# ----------------------------------------------------------- sample_pairs


@pytest.mark.parametrize(
    "space",
    [fx.IntervalSpace(-0.75, 2.5), fx.EuclideanSpace(2, 1.0), fx.EuclideanSpace(3, 0.5), fx.EuclideanSpace(2)],
    ids=["interval", "box2", "box3", "plane"],
)
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_sample_pairs_are_the_space_s_own_draws(space, seed):
    # The extremes first, then pairs of space.sample draws from one generator.
    rng = random.Random(seed)
    ext = space.extreme_points()
    expected = [(ext[0], ext[1]), (ext[1], ext[0])] if ext else []
    expected += [(space.sample(rng), space.sample(rng)) for _ in range(50 - len(expected))]
    assert fx.sample_pairs(space, 50, seed) == expected


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


def _failing_pairs(monkeypatch, a, cap, k=0.5):
    """(report, number of pairs consequent_fails fails) of f(x) = a x on
    [0, cap] under the identity with induced(k, cap), at 2,000 pairs and
    seed 1."""
    verdicts = []

    def spy(*args):
        verdicts.append(consequent_fails(*args))
        return verdicts[-1]

    monkeypatch.setattr(contraction, "consequent_fails", spy)
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, cap), fx.TNorm("product"))
    report = fx.check_g_phi(
        fm, fx.AffineMap(a, 0.0), fx.identity_for(fm.space), fx.induce_phi(k, cap), samples=2000, seed=1,
    )
    return report, sum(verdicts)


@pytest.mark.parametrize("cap", [1e2, 1e6, 1e8])
def test_induced_slack_catches_every_pair_at_large_caps(monkeypatch, cap):
    # 0.7 x breaks the implication on every pair of distinct points. A
    # slope bound of 1 / (1 - t)**2 and distance errors carried as
    # e / tau let all but 18 pairs pass at cap 1e6, and all at 1e8.
    report, failing = _failing_pairs(monkeypatch, 0.7, cap)
    assert not report.passed
    assert failing == report.checked_pairs == 2000


@pytest.mark.parametrize("cap", [1.0, 1e2, 1e6, 1e8, 1e12, 1e15])
def test_induced_modulus_is_tight_at_any_cap(monkeypatch, cap):
    report, failing = _failing_pairs(monkeypatch, 0.5, cap)
    assert report.passed and failing == 0


@pytest.mark.parametrize("k", [0.05, 0.02])
@pytest.mark.parametrize("cap", [1e2, 1e4, 1e6])
def test_steep_induced_modulus_is_tight(monkeypatch, k, cap):
    # Near tau = 1 induced(k, cap) rises with slope up to 1 / k, so the slack
    # must carry its rise over the error of the crossing time: without it,
    # up to 540 of these pairs fail.
    report, failing = _failing_pairs(monkeypatch, k, cap, k)
    assert report.passed and failing == 0


@pytest.mark.parametrize(
    "phi",
    [fx.LinearPhi(0.3), fx.RationalPhi(), fx.InducedPhi(0.2, 1.0), fx.InducedPhi(0.9, 1e6)],
    ids=["linear", "rational", "induced", "induced-wide"],
)
def test_slack_cap_only_skips_the_slack(phi):
    # A deficit above the cap fails exactly where the full slack fails it.
    cap = slack_cap(phi)
    assert 0.0 < cap < 1e-13
    rng = random.Random(0)
    for _ in range(5000):
        t = fx.crossing_time(math.exp(rng.uniform(-40.0, 15.0)))
        scaled = phi.eval(t)
        tau_f = scaled + rng.choice([-1.0, 1.0]) * cap * rng.uniform(0.0, 3.0)
        if tau_f <= 0.0:
            continue
        d = tau_f * tau_f / (1.0 - tau_f) if tau_f < 1.0 else 1e300
        assert consequent_fails(phi, t, scaled, d, cap) == consequent_fails(phi, t, scaled, d, math.inf)


def test_slack_cap_of_a_step_function_is_infinite():
    assert slack_cap(fx.TablePhi(((0.0, 0.0), (0.5, 0.25)))) == math.inf


def test_tie_just_past_the_induced_cap_fails():
    # f(x) = x / 2 with induced(0.5, cap) ties every pair up to the cap. The
    # extreme pair of the cube [-1/2, 1/2]^3 lies sqrt(3) apart, just past
    # the float cap fl(sqrt(3)), where the implication fails by about 5e-18,
    # far inside the slack.
    fm = fx.FuzzyMetric(fx.EuclideanSpace(3, 0.5), fx.TNorm("product"))
    g, phi = fx.identity_for(fm.space), fx.InducedPhi(0.5, math.sqrt(3.0))
    report = fx.check_g_phi(fm, fx.AffineMap(0.5, 0.0), g, phi, samples=200, seed=0)
    assert not report.passed
    assert {(ce.x, ce.y) for ce in report.counterexamples} == set(fx.sample_pairs(fm.space, 2, 0))
    inside = fx.check_g_phi(fm, fx.AffineMap(0.5, 0.0), g, fx.InducedPhi(0.5, 2.0), samples=200, seed=0)
    assert inside.passed


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
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ctx.traps[Inexact] = True  # each side is exact, or the test errors
        for x, y in fx.sample_pairs(space, 400, 5):
            d_f, d_g = exact_distance(flagship_fm, f, x, y), exact_distance(flagship_fm, g, x, y)
            assert d_f <= Decimal("0.5") * d_g
    fuzzy_side = fx.check_g_phi(
        flagship_fm, f, g, fx.induce_phi(0.5, 1.0), samples=400, seed=5
    )
    assert fuzzy_side.passed
