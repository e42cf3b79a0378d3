"""Property tests of the exact modulus layer against independent oracles.

The horizon is compared with plain float iteration of each modulus's
definition, and table admissibility with a dense time check. Every test
runs on a fixed seed, so the suite stays deterministic.
"""

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fuzzfix as fx
from oracles import (
    induced_step,
    linear_step,
    orbit_count,
    rational_step,
    table_laws_dense,
)

SEED = 20070
LIMIT = 10 ** 4
LAM = 0.999

deterministic = settings(max_examples=150, deadline=None, database=None)

t0s = st.floats(0.01, 50.0)
targets = st.floats(1e-6, 0.99)


def assert_horizon(phi, step, t0, target):
    expected = orbit_count(step, t0, target, LIMIT)
    assert expected is not None, "inputs must keep the horizon under 10^4"
    assert fx.horizon(phi, t0, target, LAM) == expected


@seed(SEED)
@deterministic
@given(k=st.floats(0.05, 0.98), t0=t0s, target=targets)
def test_linear_horizon_matches_iteration(k, t0, target):
    assert_horizon(fx.LinearPhi(k), linear_step(k), t0, target)


@seed(SEED)
@deterministic
@given(k=st.sampled_from([0.5, 0.25, 0.125]), i=st.integers(-3, 5), m=st.integers(1, 30))
def test_linear_horizon_on_exact_powers(k, i, m):
    # target = t0 * k**m exactly: the m-th float iterate lands on it.
    t0 = 2.0 ** i
    target = t0 * k ** m
    if target < 1.0:
        assert_horizon(fx.LinearPhi(k), linear_step(k), t0, target)


@seed(SEED)
@deterministic
@given(t0=t0s, target=st.floats(1.2e-4, 0.99))
def test_rational_horizon_matches_iteration(t0, target):
    assert_horizon(fx.RationalPhi(), rational_step, t0, target)


@seed(SEED)
@deterministic
@given(a=st.integers(1, 60), gap=st.integers(1, 9000), invert=st.booleans())
@example(a=2, gap=98, invert=True)  # t0 = 0.5, target = 0.01: the float iterate needs 99
def test_rational_horizon_on_integer_ties(a, gap, invert):
    # 1/target - 1/t0 is the integer gap (up to rounding of the inputs).
    t0 = 1.0 / a if invert else float(a)
    target = 1.0 / (gap + 1.0 / t0)
    if target < t0:
        assert_horizon(fx.RationalPhi(), rational_step, t0, target)


@seed(SEED)
@deterministic
@given(k=st.floats(0.05, 0.95), cap=st.floats(0.05, 20.0), t0=t0s, target=targets)
def test_induced_horizon_matches_iteration(k, cap, t0, target):
    assert_horizon(fx.InducedPhi(k, cap), induced_step(k, cap), t0, target)


def test_rational_horizon_is_exact_beyond_a_million_steps():
    # The exact count: ceil(1/target - 1/t0) = ceil(10^7 - 0.5).
    assert fx.horizon(fx.RationalPhi(), 2.0, 1e-7, 1e-7) == 10 ** 7


def test_table_horizon_on_a_cycle_raises():
    # phi(0.8) = 0.6 and phi(0.6) = 0.8: the orbit cycles above any target.
    phi = fx.TablePhi(((0.0, 0.0), (0.5, 0.8), (0.7, 0.6)))
    with pytest.raises(fx.HorizonExceeded):
        fx.horizon(phi, 0.8, 0.1, 0.1)


def _lattice(n):
    return st.integers(0, n).map(lambda i: i / 32.0)


@st.composite
def tables(draw):
    times = draw(st.lists(_lattice(64), min_size=1, max_size=6, unique=True))
    times.sort()
    values = draw(st.lists(_lattice(80), min_size=len(times), max_size=len(times)))
    return tuple(zip(times, values))


ROADMAP_TABLES = (
    ((0.0, 0.0), (0.2, 0.1), (0.21, 0.01), (0.24, 0.1)),
    ((0.0, 0.0), (0.3, 0.3), (0.32, 0.2)),
)


@seed(SEED)
@deterministic
@given(points=tables())
@example(points=ROADMAP_TABLES[0])
@example(points=ROADMAP_TABLES[1])
def test_table_admissibility_matches_dense_check(points):
    report = fx.verify_phi_class(fx.TablePhi(points), grid=8, t_max=2.0)
    laws = tuple(report.law(name).passed for name in ("nondecreasing", "below_identity", "iterates_vanish"))
    assert laws == table_laws_dense(points, 2.0)
    assert report.passed == all(laws)


def test_roadmap_tables_are_inadmissible():
    # Each fault lies between the points of the default 16-point grid.
    for points in ROADMAP_TABLES:
        assert not fx.verify_phi_class(fx.TablePhi(points)).passed
