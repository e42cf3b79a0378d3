"""Checkers for the contraction implications.

The single-valued condition under test is an implication over all t > 0:

    membership(gx, gy, t) > 1 - t   implies
    membership(fx, fy, phi(t)) > 1 - phi(t).

For the standard fuzzy metric the antecedent holds iff t > tau(d_g) and
the consequent iff phi(t) > tau(d_f), with d_g = d(gx, gy) and d_f =
d(fx, fy). As phi does not decrease, the consequent is hardest where the
antecedent first holds, so one comparison per pair decides the whole
t-quantifier, exactly for the maps and moduli their parameters define:
only a continuum's pair sample is approximate; a finite space takes every
pair. ``check_g_phi`` and the set-valued check decide their rows in the one
kernel ``failing_rows``: a float test where a certified margin covers the
rounding, else the exact rule ``phi.pair_passes`` in rationals, as adaptive
predicates do (Shewchuk, 1997), once per distinct pair of a finite space's
exact table floats. On an unnormalized interval or box, where d_f / d_g is
one rational, ``check_g_phi`` reads the exact rule once, in its
``piece_table``, which also carries the verdict over the plan's whole
reach: passing there, it draws no pair; failing at every d > 0, it fails
each pair of distinct points unmeasured; else one bisect of d_g in the
table decides a row, and only rows near a cut go to that kernel. Only the
counterexamples a report keeps map points, in ``replay``.

No other hypothesis is checked here. A map that passes with phi(t) < t is
already uniformly continuous from the g-transformed uniformity, and a
metric k-contraction enters only through the modulus ``InducedPhi``.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import compress, repeat, starmap
from operator import is_, mul, sub
from typing import List, Optional, Sequence, Tuple

# threshold stays importable here: perfbench/tests checks that its tracer rebinds and restores it in this module.
from .fmspace import FiniteSpace, FuzzyMetric, IntervalSpace, Point, Space, _d1, onset, threshold  # noqa: F401
from .maps import BijectionSpec, MapSpec
from .phi import CROSSING_ERROR, InducedPhi, PhiFunction, TablePhi, _U, crossing_time, ensure_phi_class, pair_passes

MAX_COUNTEREXAMPLES = 64

# Relative error of a distance from image_distances: delta rounds once
# (abs) or thrice (math.dist rounds each difference, then the norm within
# an ulp), s and s * delta once each, and normalization's expm1 within an
# ulp more.
DISTANCE_ERROR = 8 * _U
# Below this a float distance may have underflowed, so its error is absolute.
_TINY = 2.0 ** -1000


@dataclass(frozen=True)
class CounterExample:
    """A failing row, replayed at t = onset(d(gx, gy)) of the float images
    of its points: the antecedent, membership at t, exceeds 1 - t, and the
    consequent is membership of the f-images (or of u and its nearest
    image point) at phi(t). It fails 1 - phi(t) in floats unless the
    violation lies below float resolution: a row that fails only for the
    exact maps and moduli, within rounding of a tie, still reports these
    float values, in which the consequent may hold."""

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
        first MAX_COUNTEREXAMPLES in point order, ties in scan order, are
        ``replay``ed from ``distances(*row)``, their float images' (d_g, d_f).
        A finite space's rows arrive in label order; on an interval or a box
        a point is its own key, so rows rank by themselves."""
        finite = isinstance(space, FiniteSpace)
        kept = failing[:MAX_COUNTEREXAMPLES] if finite else heapq.nsmallest(MAX_COUNTEREXAMPLES, failing)
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
    """Deterministic pair plan: every ordered pair of a finite space, in
    label order, whatever ``samples``; on a continuum ``samples`` pairs,
    seeded: the space's extreme pair leads, both ways, and the rest pair up
    consecutive points of one ``space.sample`` call."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(space, FiniteSpace):
        return [(x, y) for x in space.labels for y in space.labels]
    rng = random.Random(seed)
    ext = space.extreme_points()
    pairs = [(ext[0], ext[1]), (ext[1], ext[0])] if ext else []
    points = iter(space.sample(rng, 2 * (samples - len(pairs))))
    pairs += zip(points, points)
    return pairs


def image_distances(space: Space, maps: Sequence, h, pairs: Sequence) -> List[List[float]]:
    """For each map m, the distances of h(m(x)) and h(m(y)) over ``pairs``
    (h the metric's transform, or None) before normalization, relatively
    within DISTANCE_ERROR of the exact ones: on a finite space the table
    floats of the mapped labels, on a continuum one s delta for one
    distance delta of x and y, with s = |a| |a_h| (a constant map's a is 0)."""
    if isinstance(space, FiniteSpace):
        table, out = space.dist, []
        for m in maps:
            images = {l: m.apply(l) for l in space.labels}
            rows = {l: space.index(p if h is None else h.apply(p)) for l, p in images.items()}
            out.append([table[rows[x]][rows[y]] for x, y in pairs])
        return out
    delta = list(map(abs, starmap(sub, pairs)) if isinstance(space, IntervalSpace) else starmap(math.dist, pairs))
    a_h = 1.0 if h is None else abs(h.a)
    return [list(map(mul, repeat(abs(m.a) * a_h), delta)) for m in maps]


def _float_test(phi: PhiFunction):
    """test(d_g, d_f): a row's verdict from its float distances where a
    certified margin covers their error, else None. tau(d_g) lies within e =
    4 * 2**-53 + DISTANCE_ERROR of the closed-form crossing t, relatively
    (plus 1e-160 where a distance underflowed), so in [t_lo, t_hi], t
    widened by 2 e. As phi does not decrease, the row passes if phi(t_lo) -
    margin passes the raw consequent against d_f, and fails if phi(t_hi) +
    margin does not; a table stepping inside the bracket is decided where
    both ends agree. The margin doubles the sum of eval's error against the
    real modulus (units of 2**-53: linear 1, rational 2, table 0, induced 6,
    its tail 12 with ``anchor``'s and ``tau_cap``'s), d_f's DISTANCE_ERROR,
    the raw consequent's 5 units, and for an induced eval e / k, as it turns
    to its tail at the float ``tau_cap``, within 4 units of tau(cap), where
    its slopes 1 / k and k part. Below its cap an induced modulus passes iff
    d_f <= k d_g, compared within the distances' error."""
    modulus, error = phi.eval, CROSSING_ERROR + DISTANCE_ERROR
    below, above = 1.0 - 2.0 * error, 1.0 + 2.0 * error
    margin = 2.0 * (17 * _U + DISTANCE_ERROR + (error / phi.k if isinstance(phi, InducedPhi) else 0.0))

    def bracketed(d_g, d_f):
        t = crossing_time(d_g)
        c = modulus(max(t * below - 1e-160, 0.0)) - margin
        if c > 0.0 and c / (c + d_f) > 1.0 - c:
            return True
        c = modulus(t * above + 1e-160) + margin
        return None if c / (c + d_f) > 1.0 - c else False

    if not isinstance(phi, InducedPhi):
        return bracketed
    k_lo, k_hi, cap_lo = (x * (1.0 + e * DISTANCE_ERROR) for x, e in ((phi.k, -4), (phi.k, 4), (phi.cap, -4)))

    def induced(d_g, d_f):
        if d_g > cap_lo - _TINY:
            return bracketed(d_g, d_f)
        if d_f < k_lo * d_g - _TINY:
            return True
        return False if d_f > k_hi * d_g + _TINY else None

    return induced


def piece_table(phi: PhiFunction, rho, reach2) -> Tuple[list, list, Optional[bool]]:
    """(bounds, fails, whole) for rows whose d_f / d_g is the rational rho:
    a row at float g-distance d_g fails iff fails[bisect_right(bounds,
    d_g)], and is undecided where that is None. Its exact verdict,
    phi.passes(rho, d**2) at d > 0, steps only at 0 and at phi.cuts(rho), so
    each piece between cuts takes the verdict of one rational point in it. A
    d_g within a cut's enclosure (DISTANCE_ERROR, the cut's rounding to at
    most the largest float, and _TINY), at inf or NaN, or above an induced
    modulus's cap, where its rule compares roots, is undecided. ``whole`` is
    the failing verdict where it is one for every d in (0, D], D**2 =
    ``reach2``, read at each cut in (0, D] and on each piece that meets (0,
    D); else None, and so past an induced cap or where ``reach2`` is None."""
    from fractions import Fraction

    cuts = sorted(map(Fraction, {0, *phi.cuts(rho)}))
    mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[-1] + 1]
    top = cuts[-1] if isinstance(phi, InducedPhi) else None
    verdicts = [None if cut == top else not phi.passes(rho, mid * mid) for cut, mid in zip(cuts, mids)]
    below, above = 1.0 - 2.0 * (DISTANCE_ERROR + _U), 1.0 + 2.0 * (DISTANCE_ERROR + _U)
    bounds, fails = [], [None]
    for cut, verdict in zip(cuts, verdicts):
        c = float(min(cut, sys.float_info.max))
        lo, hi = c * below - _TINY, c * above + _TINY
        if bounds and lo <= bounds[-1]:  # enclosures that meet make one: the piece between is undecided
            bounds[-1], fails[-1] = hi, verdict
        else:
            bounds += [lo, hi]
            fails += [None, verdict]
    if reach2 is None:
        return bounds + [math.inf], fails + [None], None
    reached = {v for cut, v in zip(cuts, verdicts) if cut * cut < reach2}
    reached |= {not phi.passes(rho, cut * cut) for cut in cuts if 0 < cut * cut <= reach2}
    return bounds + [math.inf], fails + [None], reached.pop() if len(reached) == 1 else None


def exact_square(h, m, x: Point, y: Point):
    """The square of the exact distance of h(m(x)) and h(m(y)) on a
    continuum before normalization, a rational (h the metric's transform,
    or None): (|a| |a_h|)**2 |x - y|**2."""
    from fractions import Fraction

    x, y = (p if type(p) is tuple else (p,) for p in (x, y))
    s = Fraction(m.a) * Fraction(1.0 if h is None else h.a)
    return s * s * sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(x, y))


def failing_rows(phi: PhiFunction, rows: Sequence[tuple], d_gs, d_fs, normalize: bool, squares=None) -> list:
    """The rows (a pair, or a pair and an image point u) that fail, in row
    order, by the float test on their ``image_distances``, else by
    ``pair_passes`` on ``squares(row)``, the squares of their exact image
    distances: a normalized continuum's rows, the set-valued check's, and
    the rows that an unnormalized continuum's ``piece_table`` leaves
    undecided. Without ``squares`` they are a finite space's table floats,
    which are exact, and each distinct (d_g, d_f), (0, 0) for coincident
    rows, is decided once, by the squares of those floats if the test
    cannot."""
    test, failing = _float_test(phi), []
    if squares is None:
        from fractions import Fraction

        @cache  # one hash a row: a key's first row decides it
        def fails(d_g, d_f):
            verdict = test(_d1(d_g), _d1(d_f)) if normalize else test(d_g, d_f)
            if verdict is None:
                verdict = pair_passes(phi, Fraction(d_g) ** 2, Fraction(d_f) ** 2, normalize)
            return not verdict

        return list(compress(rows, map(fails, d_gs, d_fs)))
    if normalize:
        d_gs, d_fs = (list(map(_d1, column)) for column in (d_gs, d_fs))
    for row, verdict in zip(rows, map(test, d_gs, d_fs)):
        if verdict is None:
            verdict = pair_passes(phi, *squares(row), normalize)
        if not verdict:
            failing.append(row)
    return failing


def check_g_phi(
    fm: FuzzyMetric, f: MapSpec, g: BijectionSpec, phi: PhiFunction, samples: int = 10000, seed: int = 0
) -> ContractionReport:
    """Verify the contraction implication by one comparison per pair.

    The classic special cases are recovered by the arguments alone:
    a linear modulus gives the ratio form of the implication, and the
    identity bijection gives the plain (untransformed) form. f is affine
    or constant on a continuum space.
    """
    from fractions import Fraction  # here, as importing it costs a few ms at startup

    ensure_phi_class(phi)
    g.validate_bijection(fm.space)
    f.validate(fm.space)
    space, h = fm.space, fm.transform
    finite = isinstance(space, FiniteSpace)

    def squares(pair):
        return [exact_square(h, m, *pair) for m in (g, f)]

    def distances(x, y):
        return fm.distance(g.apply(x), g.apply(y)), fm.distance(f.apply(x), f.apply(y))

    if finite or space.normalize:
        pairs = sample_pairs(space, samples, seed)
        d_gs, d_fs = image_distances(space, (g, f), h, pairs)
        failing = failing_rows(phi, pairs, d_gs, d_fs, space.normalize, None if finite else squares)
        return ContractionReport.of(space, phi, failing, len(pairs), distances)
    # D**2 of the farthest g-images a plan can hold: every draw lies in the space (``sample``).
    ends = space.extreme_points()
    reach2 = exact_square(h, g, *ends) if ends else None
    # d_f / d_g is rho on every row; a verdict that is one over the whole reach is every distinct pair's.
    bounds, fails, whole = piece_table(phi, abs(Fraction(f.a) / Fraction(g.a)), reach2)
    coincident = not isinstance(phi, TablePhi)
    if whole is False and coincident and samples >= 1:  # none is drawn; sample_pairs rejects samples < 1
        return ContractionReport.of(space, phi, [], max(samples, 2), distances)
    pairs = sample_pairs(space, samples, seed)
    if whole is not None:
        failing = [pair for pair in pairs if (whole if pair[0] != pair[1] else not coincident)]
    else:
        # One bisect decides a row off its cuts, and the rows near one take
        # the float test, then the exact rule; only they need d_f.
        d_gs, = image_distances(space, (g,), h, pairs)
        marks = list(map(fails.__getitem__, map(bisect_right, repeat(bounds), d_gs)))
        near = list(compress(range(len(marks)), map(is_, marks, repeat(None))))
        near_d_fs, = image_distances(space, (f,), h, [pairs[i] for i in near])
        for i in failing_rows(phi, near, [d_gs[i] for i in near], near_d_fs, False, lambda i: squares(pairs[i])):
            marks[i] = True
        failing = list(compress(pairs, marks))
    return ContractionReport.of(space, phi, failing, len(pairs), distances)
