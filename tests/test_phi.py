import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import fuzzfix as fx
from conftest import raises_exactly
from fuzzfix.phi import pair_passes
from oracles import DIGITS, dec, exact_pass


def tau(d):
    # Independent closed form for the membership/(1 - t) crossing.
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


BUILTINS = [
    fx.LinearPhi(0.5),
    fx.RationalPhi(),
    fx.InducedPhi(0.5, 1.0),
]


def test_eval_examples():
    assert fx.LinearPhi(0.5).eval(8.0) == 4.0
    assert fx.RationalPhi().eval(1.0) == 0.5
    for phi in BUILTINS:
        assert phi.eval(0.0) == 0.0


def test_linear_rejects_bad_ratio():
    for k in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(fx.InvalidK):
            fx.LinearPhi(k)


def test_iterate_examples():
    assert fx.iterate(fx.LinearPhi(0.5), 8.0, 3) == 1.0
    # rational iterates have the closed form t / (1 + n t)
    assert fx.iterate(fx.RationalPhi(), 1.0, 4) == pytest.approx(0.2)
    assert fx.iterate(fx.RationalPhi(), 5.0, 0) == 5.0


@pytest.mark.parametrize("phi", BUILTINS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("t", [0.1, 0.7, 2.0])
def test_iterate_is_repeated_eval(phi, t):
    value = t
    for n in range(8):
        assert fx.iterate(phi, t, n) == value
        value = phi.eval(value)


def test_rational_iterates_match_closed_form():
    for t in (0.2, 1.0, 3.0):
        for n in range(1, 30):
            assert fx.iterate(fx.RationalPhi(), t, n) == pytest.approx(
                t / (1.0 + n * t), rel=1e-12
            )


def test_horizon_examples():
    assert fx.horizon(fx.LinearPhi(0.5), 2.0, 0.1, 0.1) == 5
    assert fx.horizon(fx.RationalPhi(), 1.0, 0.2, 0.5) == 4
    # already below the target: nothing to do
    assert fx.horizon(fx.LinearPhi(0.5), 0.05, 0.1, 0.5) == 0


@pytest.mark.parametrize("phi", BUILTINS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("t0", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("epsilon,lam", [(0.01, 0.3), (0.1, 0.1), (0.5, 0.05)])
def test_horizon_certificate_and_minimality(phi, t0, epsilon, lam):
    n = fx.horizon(phi, t0, epsilon, lam)
    target = min(epsilon, lam)
    assert fx.iterate(phi, t0, n) <= target
    if n > 0:
        assert fx.iterate(phi, t0, n - 1) > target


@pytest.mark.parametrize("d", [0.0, 5e-324, 1e-300, 1e-30, 1e-5, 1.0, 1e5, 1e10, 1e15, 1e300])
def test_crossing_time_is_accurate_at_any_gap(d):
    # The closed form cancels at no gap, and 4 / d never overflows.
    with localcontext() as ctx:
        ctx.prec = 60
        exact = 2 / (1 + (1 + 4 / Decimal(d)).sqrt()) if d else Decimal(0)
        assert abs(Decimal(fx.crossing_time(d)) - exact) <= 4 * Decimal(2.0 ** -53) * exact


def test_induced_conjugation_identity():
    # eval(tau(d)) == tau(k d) for d up to the cap, the defining identity.
    phi = fx.InducedPhi(0.5, 1.0)
    for i in range(1, 101):
        d = i / 100
        assert phi.eval(tau(d)) == pytest.approx(tau(0.5 * d), abs=1e-9)


def test_induced_values():
    phi = fx.InducedPhi(0.5, 1.0)
    assert phi.eval(tau(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert phi.eval(0.5) == pytest.approx(tau(0.25), abs=1e-12)
    assert phi.eval(0.5) == pytest.approx(0.39038820320220756, abs=1e-9)
    # Near 0, phi(t) = tau(k t**2 / (1 - t)) is sqrt(k) t, also where the
    # gap k t**2 is subnormal.
    assert abs(phi.eval(1e-155) / 1e-155 - math.sqrt(0.5)) < 1e-12


def test_induced_linear_extension_is_continuous():
    phi = fx.InducedPhi(0.5, 1.0)
    below = phi.eval(phi.tau_cap)
    above = phi.eval(phi.tau_cap + 1e-12)
    assert above >= below
    assert above - below < 1e-9


def test_induced_rejects_bad_parameters():
    with pytest.raises(fx.InvalidK):
        fx.InducedPhi(1.2, 1.0)
    with pytest.raises(ValueError):
        fx.InducedPhi(0.5, 0.0)


def test_table_phi_is_right_continuous_step():
    phi = fx.TablePhi(((0.0, 0.0), (1.0, 1.5)))
    assert phi.eval(0.5) == 0.0
    assert phi.eval(1.0) == 1.5  # value at a breakpoint comes from the right
    assert phi.eval(2.0) == 1.5


def test_table_phi_validation():
    with pytest.raises(ValueError):
        fx.TablePhi(())
    with pytest.raises(ValueError):
        fx.TablePhi(((1.0, 0.5), (1.0, 0.7)))
    with pytest.raises(ValueError):
        fx.TablePhi(((-1.0, 0.0),))


@pytest.mark.parametrize("phi", BUILTINS, ids=lambda p: type(p).__name__)
def test_verify_phi_class_passes_builtins(phi):
    report = fx.verify_phi_class(phi)
    assert report.passed, report.failures()


def test_verify_phi_class_flags_identity_violation():
    # phi(1) = 1.5 >= 1 breaks the below-identity law at t = 1.
    phi = fx.TablePhi(((0.0, 0.0), (1.0, 1.5)))
    report = fx.verify_phi_class(phi, grid=16, t_max=2.0)
    law = report.law("below_identity")
    assert not law.passed
    assert any(t >= 1.0 for t, _ in law.witnesses)


def test_verify_phi_class_flags_nonmonotone_table():
    phi = fx.TablePhi(((0.0, 0.5), (1.0, 0.1)))
    report = fx.verify_phi_class(phi, grid=8, t_max=2.0)
    assert not report.law("nondecreasing").passed


def test_verify_phi_class_flags_stalled_iterates():
    # constant positive step never decays
    phi = fx.TablePhi(((0.0, 0.05),))
    report = fx.verify_phi_class(phi, grid=8, t_max=1.0)
    assert not report.law("iterates_vanish").passed


@pytest.mark.parametrize("phi", BUILTINS, ids=lambda p: type(p).__name__)
def test_builtins_strictly_below_identity_on_grid(phi):
    for i in range(1, 41):
        t = 2.0 * i / 40
        assert phi.eval(t) < t


def test_ensure_phi_class():
    fx.ensure_phi_class(fx.LinearPhi(0.3))
    with pytest.raises(fx.PhiInvalid):
        fx.ensure_phi_class(fx.TablePhi(((0.0, 0.0), (1.0, 1.5))))


# ------------------------------------------------------ exact pair rules


@pytest.mark.parametrize("df2,passed", [(Fraction(1, 100), True), (Fraction(3, 100), False)])
def test_pair_passes_encloses_an_irrational_ratio(df2, passed):
    # Unnormalized distances sqrt(2) and sqrt(df2): their ratio is
    # irrational, so both are enclosed and linear(0.5) decides a pass at
    # (d_g low, d_f high), a failure at (d_g high, d_f low). At 3/100 the
    # pair fails by about 3e-4.
    phi = fx.LinearPhi(0.5)
    assert pair_passes(phi, Fraction(2), df2, False) is passed
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert exact_pass(phi, Decimal(2).sqrt(), dec(df2).sqrt()) is passed


@pytest.mark.parametrize("rho,passed", [(Fraction(1, 4), True), (Fraction(1, 2), False)])
def test_induced_rule_past_the_cap(rho, passed):
    # d = 2 lies past cap 1, where the modulus runs on its linear tail, and
    # d_f = rho d: the tail's enclosures decide either way.
    phi = fx.InducedPhi(0.5, 1.0)
    assert phi.passes(rho, Fraction(4)) is passed
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert exact_pass(phi, Decimal(2), 2 * dec(rho)) is passed


# ---------------------------------------------------------- raise paths

NAN = float("nan")
HALF = fx.LinearPhi(0.5)
# A table that drops at 0.5: a NaN t_max must not skip its breakpoints.
DROPPING = fx.TablePhi(((0.0, 0.0), (0.2, 0.3), (0.5, 0.1)))
NONNEGATIVE_TIMES, NONNEGATIVE_VALUES = "breakpoint times must be nonnegative", "breakpoint values must be nonnegative"
NONNEGATIVE_ARGUMENT = "modulus argument must be nonnegative"
# (id, call, error, message). A NaN argument fails its bound with the bound's own message.
RAISES = (
    ("crossing-time-negative", lambda: fx.crossing_time(-1.0), ValueError, "d must be nonnegative"),
    ("eval-negative", lambda: HALF.eval(-1.0), ValueError, "modulus argument must be nonnegative"),
    ("table-negative-value", lambda: fx.TablePhi(((0.0, 0.0), (1.0, -0.5))), ValueError, NONNEGATIVE_VALUES),
    ("iterate-negative-n", lambda: fx.iterate(HALF, 1.0, -1), ValueError, "iteration count must be nonnegative"),
    ("horizon-t0-0", lambda: fx.horizon(HALF, 0.0, 0.1, 0.1), ValueError, "t0 must be positive"),
    ("horizon-epsilon-0", lambda: fx.horizon(HALF, 2.0, 0.0, 0.1), ValueError, "epsilon must be positive"),
    ("horizon-lam-1", lambda: fx.horizon(HALF, 2.0, 0.1, 1.0), ValueError, "lam must lie strictly between 0 and 1"),
    ("phi-class-grid-1", lambda: fx.verify_phi_class(HALF, grid=1), ValueError, "grid must be >= 2"),
    ("phi-class-t-max-0", lambda: fx.verify_phi_class(HALF, t_max=0.0), ValueError, "t_max must be positive"),
    ("horizon-nan-t0", lambda: fx.horizon(HALF, NAN, 0.1, 0.1), ValueError, "t0 must be positive"),
    ("horizon-nan-epsilon", lambda: fx.horizon(HALF, 2.0, NAN, 0.1), ValueError, "epsilon must be positive"),
    ("phi-class-nan-t-max", lambda: fx.verify_phi_class(HALF, t_max=NAN), ValueError, "t_max must be positive"),
    ("ensure-nan-t-max", lambda: fx.ensure_phi_class(DROPPING, t_max=NAN), ValueError, "t_max must be positive"),
    ("table-nan-time", lambda: fx.TablePhi(((0.0, 0.0), (NAN, 0.1))), ValueError, NONNEGATIVE_TIMES),
    ("table-nan-value", lambda: fx.TablePhi(((0.0, 0.0), (1.0, NAN))), ValueError, NONNEGATIVE_VALUES),
    ("induced-nan-cap", lambda: fx.InducedPhi(0.5, NAN), ValueError, "cap must be positive"),
    ("crossing-time-nan", lambda: fx.crossing_time(NAN), ValueError, "d must be nonnegative"),
    ("linear-eval-nan", lambda: HALF.eval(NAN), ValueError, NONNEGATIVE_ARGUMENT),
    ("rational-eval-nan", lambda: fx.RationalPhi().eval(NAN), ValueError, NONNEGATIVE_ARGUMENT),
    ("induced-eval-nan", lambda: fx.InducedPhi(0.5, 1.0).eval(NAN), ValueError, NONNEGATIVE_ARGUMENT),
    ("table-eval-nan", lambda: fx.TablePhi(((0, 0), (1, 0.5))).eval(NAN), ValueError, NONNEGATIVE_ARGUMENT),
    ("iterate-nan", lambda: fx.iterate(HALF, NAN, 3), ValueError, NONNEGATIVE_ARGUMENT),
)


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_arguments_raise(call, error, message):
    raises_exactly(call, error, message)
