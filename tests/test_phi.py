import math

import pytest

import fuzzfix as fx


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


def test_horizon_cap_raises():
    # iterates of a high ratio stall above the target within a tiny cap
    with pytest.raises(fx.HorizonExceeded):
        fx.horizon(fx.LinearPhi(0.99), 1.0, 1e-6, 0.5, cap=3)


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
