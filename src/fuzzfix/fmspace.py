"""Spaces, the standard fuzzy metric, and the axiom verifier.

A space carries an ordinary metric; the fuzzy metric built on it is the
standard one, membership(x, y, t) = t / (t + d(x, y)), which grades "x
and y are within t". Only this form is constructible: its axioms are
guaranteed, and every checker in the package runs through it.

Spaces may carry ``normalize=True``, which replaces the raw metric by
d1 = 1 - exp(-d). That keeps distances in [0, 1) without changing the
induced uniformity, so unbounded metrics still admit a diameter cap.

The crossing time ``threshold`` of membership with 1 - t is ``onset`` of
the pair's distance: the float at which membership's own expression first
exceeds 1 - t, searched for from the closed form ``phi.crossing_time``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from operator import add
from typing import Optional, Sequence, Tuple, Union

from .errors import UnknownPoint
from .phi import crossing_time
from .report import LawCheck, Report
from .tnorm import Grade, TNorm

Point = Union[str, float, Tuple[float, ...]]

# Continuity in t is verified by shrinking finite differences down to
# this floor; the pass tolerance matches the verifier's 1e-6 target.
_FM6_TOL = 1e-6
_FM6_DELTA_START = 1e-3
_FM6_DELTA_FLOOR = 1e-12

_T_LO, _T_HI = 1e-3, 2.0
_MONO_TS = (0.0, 1e-3, 0.1, 0.5, 1.0, 2.0)
_WITNESS_CAP = 16


def _d1(d: float) -> float:
    return -math.expm1(-d)


def as_number(raw) -> float:
    """A config number as a float: JSON true, false and strings are refused."""
    if type(raw) not in (int, float):
        raise ValueError(f"{raw!r} is not a number")
    return float(raw)


@dataclass(frozen=True)
class FiniteSpace:
    """Finitely many labeled points with an explicit distance table.

    The table is validated exactly at construction: zero diagonal,
    symmetry, and the triangle inequality must hold for the given floats
    as written. The triangle check of a symmetric table takes one ``min``
    over j of d(i, j) + d(k, j) per pair i < k; only a row that fails it is
    scanned in (i, j, k) order, to name its first failing triple. Labels
    must be nonempty and free of whitespace (they appear as single tokens
    in trace files).
    """

    labels: Tuple[str, ...]
    dist: Tuple[Tuple[float, ...], ...]
    normalize: bool = False

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("finite space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if any(not isinstance(l, str) or not l or any(c.isspace() for c in l) for l in labels):
            raise ValueError("labels must be nonempty strings without whitespace")
        table = tuple(tuple(float(v) for v in row) for row in self.dist)
        n = len(labels)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("distance table must be square and match the labels")
        for i in range(n):
            if table[i][i] != 0.0:
                raise ValueError(f"d({labels[i]}, {labels[i]}) must be 0")
            for j in range(n):
                if table[i][j] < 0.0:
                    raise ValueError("distances must be nonnegative")
                if table[i][j] != table[j][i]:
                    raise ValueError("distance table must be symmetric")
        for i, row in enumerate(table):
            for k in range(i + 1, n):
                if row[k] > min(map(add, row, table[k])):
                    j, k = next((j, k) for j in range(n) for k in range(n) if row[k] > row[j] + table[j][k])
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({labels[i]}, {labels[j]}, {labels[k]})"
                    )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", table)
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(labels)})

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except (KeyError, TypeError):
            raise UnknownPoint(f"{p!r} is not a point of this finite space") from None

    def parse_point(self, raw) -> Point:
        """A point as written in a config: its label string."""
        if not isinstance(raw, str):
            raise ValueError("finite-space points are label strings")
        return raw

    def contains(self, p: Point) -> bool:
        return isinstance(p, str) and p in self._index

    def distance(self, x: Point, y: Point) -> float:
        try:
            d = self.dist[self._index[x]][self._index[y]]
        except (KeyError, TypeError):
            d = self.dist[self.index(x)][self.index(y)]  # raises UnknownPoint for the first unknown point
        return _d1(d) if self.normalize else d

    def sample(self, rng: random.Random) -> Point:
        return self.labels[rng.randrange(len(self.labels))]

    def point_key(self, p: Point):
        return self.index(p)

    def extreme_points(self) -> Tuple[Point, ...]:
        return self.labels

    def diameter(self) -> float:
        d = max(max(row) for row in self.dist)
        return _d1(d) if self.normalize else d


@dataclass(frozen=True)
class IntervalSpace:
    """The closed interval [lo, hi] with the absolute-value metric."""

    lo: float
    hi: float
    normalize: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("interval length hi - lo must be a finite float")

    def parse_point(self, raw) -> Point:
        """A point as written in a config: a number."""
        return as_number(raw)

    def contains(self, p: Point) -> bool:
        return isinstance(p, (int, float)) and self.lo <= p <= self.hi

    def distance(self, x: Point, y: Point) -> float:
        d = abs(x - y)
        return _d1(d) if self.normalize else d

    def sample(self, rng: random.Random) -> Point:
        return rng.uniform(self.lo, self.hi)

    def point_key(self, p: Point):
        return float(p)

    def extreme_points(self) -> Tuple[Point, ...]:
        return (self.lo, self.hi)

    def diameter(self) -> float:
        d = self.hi - self.lo
        return _d1(d) if self.normalize else d


@dataclass(frozen=True)
class EuclideanSpace:
    """R^dim with the Euclidean metric, optionally boxed to [-bound, bound]^dim.

    Points are tuples of ``dim`` floats, as parsed and sampled; anything
    else, such as a bare number when dim == 1, goes through ``coords``.
    """

    dim: int
    bound: Optional[float] = None
    normalize: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.bound is not None and self.bound <= 0.0:
            raise ValueError("bound must be positive when given")
        if self.bound is not None and not math.isfinite(2.0 * self.bound * math.sqrt(self.dim)):
            raise ValueError("box diameter 2 * bound * sqrt(dim) must be a finite float")

    def coords(self, p: Point) -> Tuple[float, ...]:
        if isinstance(p, (int, float)):
            if self.dim != 1:
                raise UnknownPoint(f"scalar point in a {self.dim}-dimensional space")
            return (float(p),)
        c = tuple(float(v) for v in p)
        if len(c) != self.dim:
            raise UnknownPoint(f"point has {len(c)} coordinates, expected {self.dim}")
        return c

    def parse_point(self, raw) -> Point:
        """A point as written in a config: a list of numbers, or a number
        when dim == 1. The coordinate count is left to ``contains``."""
        if isinstance(raw, list):
            return tuple(map(as_number, raw))
        return self.coords(as_number(raw))

    def contains(self, p: Point) -> bool:
        try:
            c = self.coords(p)
        except (UnknownPoint, TypeError, ValueError):
            return False
        if self.bound is None:
            return True
        return all(-self.bound <= v <= self.bound for v in c)

    def _canonical(self, p: Point) -> bool:
        return type(p) is tuple and len(p) == self.dim

    def distance(self, x: Point, y: Point) -> float:
        if not (self._canonical(x) and self._canonical(y)):
            x, y = self.coords(x), self.coords(y)
        # math.dist loses an ulp through sqrt((a-b)**2) in one dimension
        d = abs(x[0] - y[0]) if self.dim == 1 else math.dist(x, y)
        return _d1(d) if self.normalize else d

    def sample(self, rng: random.Random) -> Point:
        if self.bound is None:
            return tuple(rng.gauss(0.0, 1.0) for _ in range(self.dim))
        return tuple(rng.uniform(-self.bound, self.bound) for _ in range(self.dim))

    def point_key(self, p: Point):
        return p if self._canonical(p) else self.coords(p)

    def extreme_points(self) -> Tuple[Point, ...]:
        if self.bound is None:
            return ()
        return (
            tuple(-self.bound for _ in range(self.dim)),
            tuple(self.bound for _ in range(self.dim)),
        )

    def diameter(self) -> Optional[float]:
        if self.bound is None:
            return 1.0 if self.normalize else None
        d = 2.0 * self.bound * math.sqrt(self.dim)
        return _d1(d) if self.normalize else d


Space = Union[FiniteSpace, IntervalSpace, EuclideanSpace]


@dataclass(frozen=True)
class FuzzyMetric:
    """The standard fuzzy metric over a space, under a chosen t-norm.

    An attached ``transform`` (a structurally validated bijection) moves
    both arguments before the distance is taken, which is how the
    relabeled metric of g_transform is represented.
    """

    space: Space
    norm: TNorm
    transform: Optional[object] = None

    def distance(self, x: Point, y: Point) -> float:
        """The distance membership grades: the space's metric on the
        points carried by the transform."""
        if self.transform is not None:
            x = self.transform.apply(self.space, x)
            y = self.transform.apply(self.space, y)
        return self.space.distance(x, y)

    def membership(self, x: Point, y: Point, t: float) -> Grade:
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        if self.transform is not None:
            x = self.transform.apply(self.space, x)
            y = self.transform.apply(self.space, y)
        if t == 0.0:
            return 0.0
        d = self.space.distance(x, y)
        return t / (t + d)

    def g_transform(self, g) -> "FuzzyMetric":
        """Return the metric with both arguments routed through ``g``.

        The result satisfies the same axioms as the base metric (it is
        the base metric on relabeled pairs); verify_fm_axioms can be run
        on it directly. Raises NotBijective when ``g`` fails structural
        validation on this space.
        """
        g.validate_bijection(self.space)
        composed = self.transform.compose_inner(g) if self.transform else g
        return replace(self, transform=composed)


def in_uniformity(
    fm: FuzzyMetric, x: Point, y: Point, epsilon: float, lam: Grade
) -> bool:
    """True iff membership(x, y, epsilon) > 1 - lam, strictly."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    return fm.membership(x, y, epsilon) > 1.0 - lam


def threshold(fm: FuzzyMetric, x: Point, y: Point) -> float:
    """The crossing time of membership(x, y, t) with 1 - t: 0.0 for
    coincident points, else ``onset`` of their distance.

    Membership is nondecreasing in t while 1 - t strictly falls, so the
    crossing exists and is unique. At the returned float the strict
    inequality membership(x, y, t) > 1 - t holds, and one float below it
    fails.
    """
    d = fm.distance(x, y)
    return onset(d) if d > 0.0 else 0.0


def onset(d: float) -> float:
    """t*: the float at which t / (t + d) > 1 - t holds while it fails one
    float below. The sides round by at most 2 and 1 units of 2**-53 and
    their difference rises with slope >= 1, so t* lies at most 3.0001 *
    2**-53 below the exact crossing and one float more above it. From the
    closed form the search doubles its step until the predicate changes,
    then bisects down to adjacent floats.
    """
    t = max(crossing_time(d), 2.0 ** -54)  # up to 2**-54, 1 - t rounds to 1: the predicate fails
    step = math.ulp(t)
    if t / (t + d) > 1.0 - t:
        lo, hi = t - step, t
        while lo / (lo + d) > 1.0 - lo:
            hi, step = lo, step * 2.0
            lo = hi - step if hi > step else 0.0
    else:
        lo, hi = t, t + step
        while not hi / (hi + d) > 1.0 - hi and hi < 2.0:  # it holds past 1
            lo, step = hi, step * 2.0
            hi = lo + step
    while True:
        mid = lo + (hi - lo) * 0.5
        if not lo < mid < hi:
            return hi
        if mid / (mid + d) > 1.0 - mid:
            hi = mid
        else:
            lo = mid


def is_cauchy_window(
    fm: FuzzyMetric, window: Sequence[Point], epsilon: float, lam: Grade
) -> bool:
    """True iff every pair in the window lies in the (epsilon, lam) entourage.

    Finite-window surrogate of the Cauchy property, used as the solvers'
    stopping test.
    """
    if not window:
        raise ValueError("window must be nonempty")
    for i in range(len(window)):
        for j in range(i + 1, len(window)):
            if not in_uniformity(fm, window[i], window[j], epsilon, lam):
                return False
    return True


def verify_fm_axioms(fm: FuzzyMetric, samples: int = 10000, seed: int = 0) -> Report:
    """Check the fuzzy-metric axioms on seeded random triples and times.

    FM1 membership(x, y, 0) == 0; FM2 positivity for t > 0; FM3
    membership is 1 exactly on coincident points; FM4 symmetry; FM5 the
    t-norm triangle inequality; FM6 continuity in t via shrinking
    differences; plus monotonicity of t -> membership(x, y, t) on a
    fixed grid. FM2 is sampled at t > 0 only, since FM1 pins t = 0.

    Any object with ``space``, ``norm`` and ``membership(x, y, t)`` can
    be verified, so deliberately corrupted metrics are testable.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    space = fm.space
    combine = fm.norm.combine
    mem = fm.membership

    fails = {name: [] for name in ("FM1", "FM2", "FM3", "FM4", "FM5", "FM6", "monotone_in_t")}

    for _ in range(samples):
        x = space.sample(rng)
        y = space.sample(rng)
        z = space.sample(rng)
        t = rng.uniform(_T_LO, _T_HI)
        s = rng.uniform(_T_LO, _T_HI)

        if mem(x, y, 0.0) != 0.0:
            fails["FM1"].append((x, y))
        m_xy = mem(x, y, t)
        if not m_xy > 0.0:
            fails["FM2"].append((x, y, t, m_xy))
        if mem(x, x, t) != 1.0:
            fails["FM3"].append((x, x, t, mem(x, x, t)))
        elif m_xy == 1.0 and x != y:
            fails["FM3"].append((x, y, t, m_xy))
        if m_xy != mem(y, x, t):
            fails["FM4"].append((x, y, t))
        lhs = mem(x, z, t + s)
        rhs = combine(m_xy, mem(y, z, s))
        if lhs < rhs:
            fails["FM5"].append((x, y, z, t, s, lhs, rhs))

        delta = _FM6_DELTA_START
        continuous = False
        while delta >= _FM6_DELTA_FLOOR:
            if abs(mem(x, y, t + delta) - m_xy) <= _FM6_TOL:
                continuous = True
                break
            delta *= 0.1
        if not continuous:
            fails["FM6"].append((x, y, t))

        prev = mem(x, y, _MONO_TS[0])
        for tg in _MONO_TS[1:]:
            cur = mem(x, y, tg)
            if cur < prev:
                fails["monotone_in_t"].append((x, y, tg, prev, cur))
                break
            prev = cur

    laws = tuple(
        LawCheck.of(name, samples, found, _WITNESS_CAP)
        for name, found in fails.items()
    )
    return Report(laws=laws)
