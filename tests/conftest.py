import pytest

import fuzzfix as fx

LINE5 = (0.0, 0.25, 0.5, 0.75, 1.0)


def raises_exactly(call, error, message):
    """call() raises ``error`` itself, not a subclass, with ``message``."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def per_row_piece_table(phi, rho, reach2, piece_table=fx.contraction.piece_table):
    """contraction.piece_table without a reach: patched in, it sends every
    continuum check to the per-row path."""
    return piece_table(phi, rho, None)


def line_space(coords, normalize=False):
    """Finite space whose points sit on a line; labels are the coordinates."""
    labels = tuple(str(c) for c in coords)
    dist = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return fx.FiniteSpace(labels, dist, normalize=normalize)


@pytest.fixture
def unit_interval():
    return fx.IntervalSpace(0.0, 1.0)


@pytest.fixture
def product_norm():
    return fx.TNorm("product")


@pytest.fixture
def flagship_fm(unit_interval, product_norm):
    return fx.FuzzyMetric(unit_interval, product_norm)


@pytest.fixture
def flagship_f():
    return fx.AffineMap(0.5, 0.0)


@pytest.fixture
def flagship_g():
    return fx.AffineBijection(-1.0, 1.0)


@pytest.fixture
def flagship_phi():
    return fx.InducedPhi(0.5, 1.0)


@pytest.fixture
def flagship_cfg():
    return fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, t0=2.0)


@pytest.fixture
def finite5():
    return line_space(LINE5)


@pytest.fixture
def multivalued_space():
    return fx.FiniteSpace(
        ("0", "0.1", "1"),
        ((0.0, 0.1, 1.0), (0.1, 0.0, 0.9), (1.0, 0.9, 0.0)),
    )


@pytest.fixture
def multivalued_T():
    return fx.SetValuedMap({"0": ("0",), "0.1": ("0",), "1": ("0", "0.1")})
