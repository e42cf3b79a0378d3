"""Checkers for the contraction implications, and the induced modulus.

The single-valued condition under test is an implication over all t > 0:

    membership(gx, gy, t) > 1 - t   implies
    membership(fx, fy, phi(t)) > 1 - phi(t).

For the standard fuzzy metric the antecedent holds iff t > tau(d_g) and
the consequent iff phi(t) > tau(d_f), with d_g = d(gx, gy) and d_f =
d(fx, fy). As phi does not decrease, the consequent is hardest where the
antecedent first holds, so one comparison per pair decides the whole
t-quantifier; only the pair sampling is approximate. The distances come
from ``image_distances``, relatively within DISTANCE_ERROR of the exact
ones. A pair passes iff phi(t) > 0 and phi(t) >= tau(d_f) - slack at t =
crossing_time(d_g) (``COINCIDENT_ONSET`` at d_g = 0); the raw consequent
is tried first. The slack is derived, for maps and moduli taken as exact
real functions. t lies relatively within 4 * 2**-53 of tau(d_g), and tau
rises like d**(1/2) at most, so the exact crossing lies at most dt = 4 *
2**-53 + DISTANCE_ERROR * t above t; ``phi.slack`` covers the rounding in
eval and the rise of phi over dt, (5 * 2**-53 + DISTANCE_ERROR) * tau(d_f)
the closed form for tau(d_f) and the error in d_f, and 4 * 2**-53 the raw
consequent and distances that underflow. Only the counterexamples a
report keeps are computed from the float images of their points.

``check_g_phi`` and the set-valued check decide their rows (pairs, or
pairs and an image point) through the one kernel ``failing_rows``, and
replay counterexamples through ``replay``; ``check_g_phi`` first asks
``induced_tie_rule``, and where that exact rule applies no row takes the
slack path.

No other hypothesis is checked here. A map that passes with phi(t) < t is
already uniformly continuous from the g-transformed uniformity, and a
metric k-contraction enters only through the modulus ``InducedPhi``.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from operator import sub
from typing import List, Optional, Sequence, Tuple

# threshold is no longer called here, but stays importable as contraction.threshold:
# perfbench/tests checks that its tracer rebinds and restores it in this module.
from .fmspace import FiniteSpace, FuzzyMetric, IntervalSpace, Point, Space, onset, threshold  # noqa: F401
from .maps import BijectionSpec, MapSpec
from .phi import InducedPhi, LinearPhi, PhiFunction, RationalPhi, TablePhi, crossing_time, ensure_phi_class

MAX_COUNTEREXAMPLES = 64

_U = 2.0 ** -53
_ONSET_ERROR = 4 * _U
# Relative error of a distance from image_distances: delta rounds once
# (abs) or thrice (math.dist rounds each difference, then the norm within
# an ulp), s and s * delta once each, and normalization's expm1 within an
# ulp more.
DISTANCE_ERROR = 8 * _U
# Coincident points, whose crossing is 0, are judged at the first float t
# at which their antecedent holds: phi must be positive past 0.
COINCIDENT_ONSET = onset(0.0)


@dataclass(frozen=True)
class CounterExample:
    """A violation at t = onset(d(gx, gy)) of the float images: recomputing
    both sides reproduces antecedent > 1 - t with the consequent failing,
    unless the violation is below the rounding of those images."""

    x: Point
    y: Point
    t: float
    antecedent: float
    consequent: float
    u: Optional[Point] = None


@dataclass(frozen=True)
class ContractionReport:
    passed: bool
    checked_pairs: int
    counterexamples: Tuple[CounterExample, ...]
    method: str

    @classmethod
    def of(cls, space: Space, phi: PhiFunction, failing: list, checked: int, distances) -> "ContractionReport":
        """The report of ``checked`` pairs from the failing rows: only the
        first MAX_COUNTEREXAMPLES by point keys, ties in scan order, are
        ``replay``ed from ``distances(*row)``, their float images' (d_g, d_f)."""
        kept = heapq.nsmallest(MAX_COUNTEREXAMPLES, failing, key=lambda p: tuple(map(space.point_key, p)))
        counterexamples = tuple(replay(phi, row, *distances(*row)) for row in kept)
        return cls(not failing, checked, counterexamples, "threshold-reduction")


def replay(phi: PhiFunction, row: tuple, d_g: float, d_f: float) -> CounterExample:
    """The CounterExample of a failing row (x, y[, u]) at t = onset(d_g),
    from the distances d_g and d_f of its float images. Raises
    OverflowError where one is not a number: images at inf on an unbounded
    space."""
    if math.isnan(d_g) or math.isnan(d_f):
        raise OverflowError(f"the images of {row[0]!r} and {row[1]!r} overflow: their distance is not a number")
    t = onset(d_g)
    scaled = phi.eval(t)
    return CounterExample(*row[:2], t, t / (t + d_g), scaled / (scaled + d_f) if scaled != 0.0 else 0.0, *row[2:])


def sample_pairs(space: Space, samples: int, seed: int) -> List[Tuple[Point, Point]]:
    """Deterministic pair plan: all ordered pairs on small finite spaces,
    otherwise seeded draws with the space's extremes prepended. Interval
    and box coordinates are drawn as lo + w * random(), random.uniform's
    own formula, so they are the floats of space.sample."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    if isinstance(space, FiniteSpace):
        pairs = [(x, y) for x in space.labels for y in space.labels]
        if len(pairs) <= samples:
            return pairs
        return [pairs[rng.randrange(len(pairs))] for _ in range(samples)]
    ext = space.extreme_points()
    pairs = [(ext[0], ext[1]), (ext[1], ext[0])] if ext else []
    draws, rnd = range(samples - len(pairs)), rng.random
    if isinstance(space, IntervalSpace):
        lo, w = space.lo, space.hi - space.lo
        pairs += [(lo + w * rnd(), lo + w * rnd()) for _ in draws]
    elif space.bound is not None:
        lo, w, n = -space.bound, 2.0 * space.bound, range(space.dim)
        pairs += [(tuple([lo + w * rnd() for _ in n]), tuple([lo + w * rnd() for _ in n])) for _ in draws]
    else:
        pairs += [(space.sample(rng), space.sample(rng)) for _ in draws]
    return pairs


def image_distances(space: Space, maps: Sequence, h, pairs: Sequence) -> List[List[float]]:
    """For each map m, the distances of h(m(x)) and h(m(y)) over ``pairs``
    (h the metric's transform, or None), relatively within DISTANCE_ERROR of
    the exact ones: on a finite space the table floats of the mapped labels,
    on a continuum one s delta for one distance delta of x and y, with s =
    |a| |a_h| (a constant map's a is 0), and 1 - exp(-s delta) under normalize."""
    if isinstance(space, FiniteSpace):
        table, out = space.dist, []
        for m in maps:
            images = {l: m.apply(l) for l in space.labels}
            rows = {l: space.index(p if h is None else h.apply(p)) for l, p in images.items()}
            out.append([table[rows[x]][rows[y]] for x, y in pairs])
    else:
        p, q = [x for x, _ in pairs], [y for _, y in pairs]
        delta = list(map(abs, map(sub, p, q)) if isinstance(space, IntervalSpace) else map(math.dist, p, q))
        a_h = 1.0 if h is None else abs(h.a)
        slopes = [abs(m.a) * a_h for m in maps]
        out = [[s * d for d in delta] for s in slopes]
    if space.normalize:
        out = [[-math.expm1(-d) for d in ds] for ds in out]
    return out


def slack_cap(phi: PhiFunction) -> float:
    """Twice the largest slack ``consequent_fails`` allows a pair (t, phi(t)
    and tau lie in [0, 1]), from each modulus's steepest slope: k, 1 or 1/k
    for the linear, rational and induced forms; inf for a step function."""
    if isinstance(phi, TablePhi):
        return math.inf
    slope = phi.k if isinstance(phi, LinearPhi) else 1.0 if isinstance(phi, RationalPhi) else 1.0 / phi.k
    return 2.0 * (17 * _U + DISTANCE_ERROR + slope * (_ONSET_ERROR + DISTANCE_ERROR))


def consequent_fails(phi: PhiFunction, t: float, scaled: float, d: float, cap: float) -> bool:
    """Whether scaled = phi.eval(t) at t = crossing_time(d_g), where the raw
    consequent failed, fails it for image distance d beyond the slack. A
    deficit above cap = slack_cap(phi) fails without the slack. At scaled
    == 0 it fails: membership is 0."""
    tau = crossing_time(d)
    if tau - scaled > cap:
        return True
    dt = _ONSET_ERROR + DISTANCE_ERROR * t
    slack = phi.slack(t, scaled, dt) + _ONSET_ERROR + (5 * _U + DISTANCE_ERROR) * tau
    return not (scaled > 0.0 and scaled >= tau - slack)


def failing_rows(phi: PhiFunction, rows: Sequence[tuple], d_gs: Sequence[float], d_fs: Sequence[float]) -> list:
    """The rows (a pair, or a pair and an image point u) that fail: each is
    decided at t = crossing_time(d_g), or COINCIDENT_ONSET at d_g = 0,
    against its image distance d_f."""
    modulus, cap = phi.eval, slack_cap(phi)
    failing = []
    for row, d_g, d_f in zip(rows, d_gs, d_fs):
        t = crossing_time(d_g) or COINCIDENT_ONSET
        scaled = modulus(t)
        # The raw consequent passes almost every passing pair, without tau_f.
        if scaled != 0.0 and scaled / (scaled + d_f) > 1.0 - scaled:
            continue
        if consequent_fails(phi, t, scaled, d_f, cap):
            failing.append(row)
    return failing


def induced_tie_rule(fm: FuzzyMetric, f: MapSpec, g: BijectionSpec, phi: PhiFunction):
    """fails(pair, d_g), exactly, for an induced modulus on an unnormalized
    continuum space whose ratio r = s_f / s_g is at least k; else None.
    Up to the cap phi(tau(d)) = tau(k d), and past it tau(r d) outgrows
    phi(tau(d)): at r > k every pair of distinct points fails, at r == k
    those past the cap, by violations that may lie far inside the slack."""
    space, h = fm.space, fm.transform
    if not isinstance(phi, InducedPhi) or isinstance(space, FiniteSpace) or space.normalize:
        return None
    from fractions import Fraction  # here, as importing it costs a few ms at startup

    excess = Fraction(abs(f.a)) - Fraction(phi.k) * Fraction(abs(g.a))  # the transform's slope cancels in r
    if excess > 0:
        return lambda pair, d_g: pair[0] != pair[1]
    if excess < 0:
        return None
    s_g = Fraction(abs(g.a)) * Fraction(1.0 if h is None else abs(h.a))
    cap, room, squared_cap = phi.cap, 2 * DISTANCE_ERROR * phi.cap, (Fraction(phi.cap) / s_g) ** 2

    def fails(pair, d_g):
        if abs(d_g - cap) > room:  # d_g tells the pair's side of the cap
            return d_g > cap
        x, y = (p if type(p) is tuple else (p,) for p in pair)
        return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y)) > squared_cap

    return fails


def check_g_phi(
    fm: FuzzyMetric, f: MapSpec, g: BijectionSpec, phi: PhiFunction, samples: int = 10000, seed: int = 0
) -> ContractionReport:
    """Verify the contraction implication by one comparison per pair.

    The classic special cases are recovered by the arguments alone:
    a linear modulus gives the ratio form of the implication, and the
    identity bijection gives the plain (untransformed) form. f is affine
    or constant on a continuum space.
    """
    ensure_phi_class(phi)
    g.validate_bijection(fm.space)
    f.validate(fm.space)
    space = fm.space
    pairs = sample_pairs(space, samples, seed)
    exact = induced_tie_rule(fm, f, g, phi)
    if exact is None:
        failing = failing_rows(phi, pairs, *image_distances(space, (g, f), fm.transform, pairs))
    else:
        failing = [p for p, d_g in zip(pairs, image_distances(space, (g,), fm.transform, pairs)[0]) if exact(p, d_g)]

    def distances(x, y):
        return fm.distance(g.apply(x), g.apply(y)), fm.distance(f.apply(x), f.apply(y))

    return ContractionReport.of(space, phi, failing, len(pairs), distances)

