import pytest

import fuzzfix as fx
from conftest import raises_exactly


@pytest.fixture
def finite3():
    return fx.FiniteSpace(
        ("a", "b", "c"), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))
    )


def test_affine_map_apply():
    m = fx.AffineMap(0.5, 0.1)
    assert m.apply(0.4) == pytest.approx(0.3)
    assert m.apply((1.0, 2.0)) == (0.6, 1.1)


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
        table.apply("zz")


def test_affine_bijection_roundtrip(unit_interval):
    g = fx.AffineBijection(-1.0, 1.0)
    g.validate_bijection(unit_interval)
    assert g.apply(0.25) == 0.75
    assert g.invert_apply(0.75) == pytest.approx(0.25)


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
    assert perm.apply("a") == "b"
    assert perm.invert_apply("b") == "a"
    with pytest.raises(fx.NotBijective):
        fx.PermutationBijection({"a": "a", "b": "a", "c": "c"}).validate_bijection(
            finite3
        )
    with pytest.raises(fx.InverseUndefined):
        fx.PermutationBijection({"a": "a"}).invert_apply("b")


def test_identity_for(unit_interval, finite3):
    ident = fx.identity_for(unit_interval)
    assert ident.apply(0.3) == 0.3
    ident_f = fx.identity_for(finite3)
    assert ident_f.apply("b") == "b"


def test_inverse_composite_recurrence():
    g = fx.AffineBijection(-1.0, 1.0)
    f = fx.AffineMap(0.5, 0.0)
    h = fx.InverseComposite(g, f)
    x = 0.2
    for _ in range(10):
        x_next = h.apply(x)
        assert g.apply(x_next) == pytest.approx(f.apply(x), abs=1e-15)
        x = x_next


def test_compose_inner_affine():
    outer = fx.AffineBijection(2.0, 1.0)
    inner = fx.AffineBijection(-1.0, 1.0)
    composed = outer.compose_inner(inner)
    for x in (-1.0, 0.0, 0.4, 2.5):
        assert composed.apply(x) == outer.apply(inner.apply(x))


def test_permutation_inverse_round_trips():
    labels = [f"p{i}" for i in range(128)]
    images = labels[37:] + labels[:37]
    perm = fx.PermutationBijection(dict(zip(labels, images)))
    for x, y in zip(labels, images):
        assert perm.invert_apply(y) == x
        assert perm.apply(perm.invert_apply(x)) == x
    with pytest.raises(fx.InverseUndefined):
        perm.invert_apply("q")


def test_compose_inner_permutation(finite3):
    outer = fx.PermutationBijection({"a": "b", "b": "c", "c": "a"})
    inner = fx.PermutationBijection({"a": "c", "b": "b", "c": "a"})
    composed = outer.compose_inner(inner)
    for label in finite3.labels:
        assert composed.apply(label) == outer.apply(inner.apply(label))


# ---------------------------------------------------------- raise paths

AB = fx.FiniteSpace(("a", "b"), ((0.0, 1.0), (1.0, 0.0)))
RAISES = (
    (
        "affine-on-finite",
        lambda: fx.AffineMap(0.5, 0.0).validate(AB),
        ValueError,
        "affine maps are undefined on finite spaces",
    ),
    (
        "affine-leaves-box",
        lambda: fx.AffineMap(0.5, 0.6).validate(fx.EuclideanSpace(2, 1.0)),
        ValueError,
        "affine map leaves the bounded Euclidean box",
    ),
    (
        "table-image-outside",
        lambda: fx.TableMap({"a": "z", "b": "a"}).validate(AB),
        ValueError,
        "table image 'z' lies outside the space",
    ),
    (
        "affine-bijection-on-finite",
        lambda: fx.AffineBijection(1.0, 0.0).validate_bijection(AB),
        fx.NotBijective,
        "affine bijections are undefined on finite spaces",
    ),
    (
        "permutation-no-image",
        lambda: fx.PermutationBijection({"a": "b", "b": "a"}).apply("c"),
        fx.UnknownPoint,
        "permutation has no image for 'c'",
    ),
    (
        "permutation-on-interval",
        lambda: fx.PermutationBijection({"a": "a"}).validate_bijection(fx.IntervalSpace(0.0, 1.0)),
        fx.NotBijective,
        "permutations are only defined on finite spaces",
    ),
)


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_arguments_raise(call, error, message):
    raises_exactly(call, error, message)
