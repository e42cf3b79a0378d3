import pytest

import fuzzfix as fx


@pytest.fixture
def finite3():
    return fx.FiniteSpace(
        ("a", "b", "c"), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))
    )


def test_affine_map_apply(unit_interval):
    m = fx.AffineMap(0.5, 0.1)
    assert m.apply(unit_interval, 0.4) == pytest.approx(0.3)
    space2 = fx.EuclideanSpace(2)
    assert m.apply(space2, (1.0, 2.0)) == (0.6, 1.1)


def test_validate_map_affine(unit_interval):
    fx.AffineMap(0.5, 0.0).validate(unit_interval)
    with pytest.raises(ValueError):
        fx.AffineMap(2.0, 0.0).validate(unit_interval)
    with pytest.raises(ValueError):
        fx.AffineMap(1.0, 0.5).validate(unit_interval)


def test_validate_map_constant(unit_interval, finite3):
    fx.ConstantMap(0.25).validate(unit_interval)
    with pytest.raises(ValueError):
        fx.ConstantMap(1.5).validate(unit_interval)
    fx.ConstantMap("b").validate(finite3)
    with pytest.raises(ValueError):
        fx.ConstantMap("zz").validate(finite3)


def test_validate_map_table(finite3, unit_interval):
    table = fx.TableMap({"a": "a", "b": "a", "c": "b"})
    table.validate(finite3)
    with pytest.raises(ValueError):
        fx.TableMap({"a": "a"}).validate(finite3)  # not total
    with pytest.raises(ValueError):
        table.validate(unit_interval)  # wrong space kind
    with pytest.raises(fx.UnknownPoint):
        table.apply(finite3, "zz")


def test_affine_bijection_roundtrip(unit_interval):
    g = fx.AffineBijection(-1.0, 1.0)
    g.validate_bijection(unit_interval)
    assert g.apply(unit_interval, 0.25) == 0.75
    assert g.invert_apply(unit_interval, 0.75) == pytest.approx(0.25)


def test_affine_bijection_validation(unit_interval):
    with pytest.raises(fx.NotBijective):
        fx.AffineBijection(0.0, 0.5).validate_bijection(unit_interval)
    with pytest.raises(fx.NotBijective):
        fx.AffineBijection(0.5, 0.0).validate_bijection(unit_interval)
    # unbounded line: any nonzero slope is onto
    fx.AffineBijection(2.0, 3.0).validate_bijection(fx.EuclideanSpace(1))
    boxed = fx.EuclideanSpace(1, bound=1.0)
    fx.AffineBijection(-1.0, 0.0).validate_bijection(boxed)
    with pytest.raises(fx.NotBijective):
        fx.AffineBijection(0.5, 0.0).validate_bijection(boxed)


def test_permutation_bijection(finite3):
    perm = fx.PermutationBijection({"a": "b", "b": "a", "c": "c"})
    perm.validate_bijection(finite3)
    assert perm.apply(finite3, "a") == "b"
    assert perm.invert_apply(finite3, "b") == "a"
    with pytest.raises(fx.NotBijective):
        fx.PermutationBijection({"a": "a", "b": "a", "c": "c"}).validate_bijection(
            finite3
        )
    with pytest.raises(fx.InverseUndefined):
        fx.PermutationBijection({"a": "a"}).invert_apply(finite3, "b")


def test_identity_for(unit_interval, finite3):
    ident = fx.identity_for(unit_interval)
    assert ident.apply(unit_interval, 0.3) == 0.3
    ident_f = fx.identity_for(finite3)
    assert ident_f.apply(finite3, "b") == "b"


def test_inverse_composite_recurrence(unit_interval):
    g = fx.AffineBijection(-1.0, 1.0)
    f = fx.AffineMap(0.5, 0.0)
    h = fx.InverseComposite(g, f)
    x = 0.2
    for _ in range(10):
        x_next = h.apply(unit_interval, x)
        assert g.apply(unit_interval, x_next) == pytest.approx(
            f.apply(unit_interval, x), abs=1e-15
        )
        x = x_next


def test_compose_inner_affine():
    outer = fx.AffineBijection(2.0, 1.0)
    inner = fx.AffineBijection(-1.0, 1.0)
    composed = outer.compose_inner(inner)
    space = fx.EuclideanSpace(1)
    for x in (-1.0, 0.0, 0.4, 2.5):
        assert composed.apply(space, x) == outer.apply(space, inner.apply(space, x))


def test_permutation_inverse_round_trips():
    labels = [f"p{i}" for i in range(128)]
    images = labels[37:] + labels[:37]
    space = fx.FiniteSpace(
        tuple(labels), tuple(tuple(float(abs(i - j)) for j in range(128)) for i in range(128))
    )
    perm = fx.PermutationBijection(dict(zip(labels, images)))
    for x, y in zip(labels, images):
        assert perm.invert_apply(space, y) == x
        assert perm.apply(space, perm.invert_apply(space, x)) == x
    with pytest.raises(fx.InverseUndefined):
        perm.invert_apply(space, "q")


def test_compose_inner_permutation(finite3):
    outer = fx.PermutationBijection({"a": "b", "b": "c", "c": "a"})
    inner = fx.PermutationBijection({"a": "c", "b": "b", "c": "a"})
    composed = outer.compose_inner(inner)
    for label in finite3.labels:
        assert composed.apply(finite3, label) == outer.apply(
            finite3, inner.apply(finite3, label)
        )
