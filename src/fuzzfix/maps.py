"""Point maps and bijections over the supported spaces.

A map is validated against a space once, structurally, then applied to
points alone (labels, numbers or Euclidean dim-tuples): affine maps must
send the space into itself, tables must be total on a finite space's
labels, and bijections must map the space onto itself (affine with
nonzero slope fixing the endpoints, or a full permutation table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Union

from .errors import InverseUndefined, NotBijective, UnknownPoint
from .fmspace import FiniteSpace, IntervalSpace, Point, Space


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b, applied per coordinate on Euclidean points."""

    a: float
    b: float

    def apply(self, p: Point) -> Point:
        if type(p) is tuple:
            return tuple([self.a * c + self.b for c in p])
        return self.a * p + self.b

    def validate(self, space: Space) -> None:
        if isinstance(space, FiniteSpace):
            raise ValueError("affine maps are undefined on finite spaces")
        if isinstance(space, IntervalSpace):
            for end in (space.lo, space.hi):
                img = self.a * end + self.b
                if not space.lo <= img <= space.hi:
                    raise ValueError(
                        f"affine map sends endpoint {end!r} to {img!r}, outside the interval"
                    )
        elif space.bound is not None and abs(self.a) * space.bound + abs(self.b) > space.bound:
            raise ValueError("affine map leaves the bounded Euclidean box")


@dataclass(frozen=True)
class ConstantMap:
    c: Point
    a: ClassVar[float] = 0.0  # the slope by which it scales distances

    def apply(self, p: Point) -> Point:
        return self.c

    def validate(self, space: Space) -> None:
        if not space.contains(self.c):
            raise ValueError(f"constant image {self.c!r} lies outside the space")


@dataclass(frozen=True)
class TableMap:
    """Explicit point-to-point mapping on a finite space."""

    mapping: Dict[Point, Point]

    def apply(self, p: Point) -> Point:
        try:
            return self.mapping[p]
        except KeyError:
            raise UnknownPoint(f"table map has no image for {p!r}") from None

    def validate(self, space: Space) -> None:
        if not isinstance(space, FiniteSpace):
            raise ValueError("table maps are only supported on finite spaces")
        missing = set(space.labels) - set(self.mapping)
        if missing:
            raise ValueError(f"table map is missing images for {sorted(missing)}")
        for value in self.mapping.values():
            if not space.contains(value):
                raise ValueError(f"table image {value!r} lies outside the space")


@dataclass(frozen=True)
class AffineBijection:
    """x -> a*x + b with a != 0; must map the space onto itself."""

    a: float
    b: float

    apply = AffineMap.apply

    def invert_apply(self, p: Point) -> Point:
        if isinstance(p, tuple):
            return tuple((c - self.b) / self.a for c in p)
        return (p - self.b) / self.a

    def validate_bijection(self, space: Space) -> None:
        if self.a == 0.0:
            raise NotBijective("affine bijection requires a != 0")
        if isinstance(space, FiniteSpace):
            raise NotBijective("affine bijections are undefined on finite spaces")
        if isinstance(space, IntervalSpace):
            image = {self.a * space.lo + self.b, self.a * space.hi + self.b}
            if image != {space.lo, space.hi}:
                raise NotBijective(
                    "affine map does not send the interval onto itself"
                )
            return
        if space.bound is not None and not (abs(self.a) == 1.0 and self.b == 0.0):
            raise NotBijective(
                "only x -> x and x -> -x map the bounded Euclidean box onto itself"
            )

    def compose_inner(self, inner: "AffineBijection") -> "AffineBijection":
        # self after inner: x -> self(inner(x)).
        return AffineBijection(self.a * inner.a, self.a * inner.b + self.b)


@dataclass(frozen=True)
class PermutationBijection:
    """A permutation of a finite space's labels."""

    mapping: Dict[str, str]
    _inverse: Dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The first key wins where a table that is not a permutation
        # repeats a value.
        inverse = {value: key for key, value in reversed(self.mapping.items())}
        object.__setattr__(self, "_inverse", inverse)

    def apply(self, p: Point) -> Point:
        try:
            return self.mapping[p]
        except KeyError:
            raise UnknownPoint(f"permutation has no image for {p!r}") from None

    def invert_apply(self, p: Point) -> Point:
        try:
            return self._inverse[p]
        except KeyError:
            raise InverseUndefined(f"no preimage for {p!r} under the permutation") from None

    def validate_bijection(self, space: Space) -> None:
        if not isinstance(space, FiniteSpace):
            raise NotBijective("permutations are only defined on finite spaces")
        labels = set(space.labels)
        if set(self.mapping) != labels or set(self.mapping.values()) != labels:
            raise NotBijective("table is not a permutation of the space's labels")

    def compose_inner(self, inner: "PermutationBijection") -> "PermutationBijection":
        return PermutationBijection(
            {key: self.mapping[value] for key, value in inner.mapping.items()}
        )


BijectionSpec = Union[AffineBijection, PermutationBijection]
MapSpec = Union[AffineMap, ConstantMap, TableMap, "InverseComposite"]


def identity_for(space: Space) -> BijectionSpec:
    if isinstance(space, FiniteSpace):
        return PermutationBijection({l: l for l in space.labels})
    return AffineBijection(1.0, 0.0)


@dataclass(frozen=True)
class InverseComposite:
    """The map x -> g^{-1}(f(x)), evaluated stepwise.

    Applying f and then inverting g keeps the recurrence
    g(apply(x)) == f(x) exact up to one inversion round trip, which is
    what the solver's trace invariant relies on.
    """

    g: BijectionSpec
    f: MapSpec

    def apply(self, p: Point) -> Point:
        return self.g.invert_apply(self.f.apply(p))

    def apply_on(self, space: Space) -> Callable[[Point], Point]:
        """``apply`` for the points of ``space``: an affine f and g step
        in one expression, (a_f * x + b_f - b_g) / a_g per coordinate,
        the float operations of ``apply`` in its order."""
        f, g = self.f, self.g
        if type(f) is not AffineMap or type(g) is not AffineBijection:
            return self.apply
        a_f, b_f, a_g, b_g = f.a, f.b, g.a, g.b
        if isinstance(space, IntervalSpace):
            return lambda x: (a_f * x + b_f - b_g) / a_g
        return lambda p: tuple([(a_f * c + b_f - b_g) / a_g for c in p])
