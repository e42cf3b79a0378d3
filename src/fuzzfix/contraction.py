"""Checkers for the contraction implications, and the induced modulus.

The single-valued condition under test is an implication over all t > 0:

    membership(gx, gy, t) > 1 - t   implies
    membership(fx, fy, phi(t)) > 1 - phi(t).

For the standard fuzzy metric the antecedent holds iff t > tau(d_g) and
the consequent iff phi(t) > tau(d_f), with d_g = d(gx, gy) and d_f =
d(fx, fy). As phi does not decrease, the consequent is hardest where the
antecedent first holds: at t* = ``onset(d_g)``, in floats. So one
comparison per pair decides the whole t-quantifier; only the pair
sampling is approximate. A pair passes iff phi(t*) > 0 and phi(t*) >=
tau(d_f) - slack; the raw consequent is tried first, and tau(d_f) is
computed only where it fails. The slack is derived, for maps and
moduli taken as exact real functions: ``phi.slack`` covers the rounding
in eval and the rise of phi over t*'s distance below the exact crossing
(4 * 2**-53, plus what rounding in g and in the distance may hide of
d_g). Errors in the distances are carried through tau's own slope,
tau'(d) = (1 - tau)**2 / (tau (2 - tau)), which falls with d as tau is
concave: an error e_g in d_g moves the crossing by at most e_g *
tau'(d_g), and one e in d_f moves tau(d_f) by at most e * tau'(d_f - e).
5 * 2**-53 * tau(d_f) + 4 * 2**-53 cover the closed form for tau(d_f) and
the raw consequent. A failing pair records one counterexample at t*,
which replays through membership in floats. The metric-side check
``check_metric_phi`` takes the same rounding bounds.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .fmspace import EuclideanSpace, FiniteSpace, FuzzyMetric, Point, Space, onset, threshold
from .maps import AffineBijection, AffineMap, BijectionSpec, MapSpec, rounding, validate_map
from .phi import InducedPhi, PhiFunction, crossing_time, ensure_phi_class
from .report import LawCheck, Report

MAX_COUNTEREXAMPLES = 64

_U = 2.0 ** -53
_ONSET_ERROR = 4 * _U

# Fuzzy continuity: the target levels checked, and the floor below which
# a needed source level is reported as a jump.
CONTINUITY_T_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
CONTINUITY_S_FLOOR = 1e-8


@dataclass(frozen=True)
class CounterExample:
    """A replayable violation: recomputing both sides from (x, y, t)
    reproduces antecedent > 1 - t with the consequent failing."""

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
    def of(cls, found: list, checked: int, method: str) -> "ContractionReport":
        """The report of ``checked`` pairs from their failures, of which the
        first MAX_COUNTEREXAMPLES in report order are kept.

        Each entry of ``found`` is a flat tuple: the sort key's components
        (point keys), the failure's position in the scan (ties keep scan
        order, as a stable sort would) and last the CounterExample fields as
        a tuple. heapq.nsmallest equals sorted(found)[:n], and only the kept
        entries become objects.
        """
        kept = heapq.nsmallest(MAX_COUNTEREXAMPLES, found)
        return cls(not found, checked, tuple(CounterExample(*entry[-1]) for entry in kept), method)


def sample_pairs(
    space: Space, samples: int, seed: int
) -> List[Tuple[Point, Point]]:
    """Deterministic pair plan: all ordered pairs on small finite spaces,
    otherwise seeded draws with the space's extremes prepended."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    if isinstance(space, FiniteSpace):
        pairs = [(x, y) for x in space.labels for y in space.labels]
        if len(pairs) <= samples:
            return pairs
        return [pairs[rng.randrange(len(pairs))] for _ in range(samples)]
    pairs = []
    ext = space.extreme_points()
    if len(ext) == 2:
        pairs.append((ext[0], ext[1]))
        pairs.append((ext[1], ext[0]))
    while len(pairs) < samples:
        pairs.append((space.sample(rng), space.sample(rng)))
    return pairs


def image_rounding(fm: FuzzyMetric, m) -> Tuple[float, float]:
    """``maps.rounding`` of the point fm measures for m(p): fm's transform
    h scales m's error by |h.a| and adds its own at m(p), whose size is at
    most |m.a| * |p| + |m.b| per coordinate."""
    r, s = rounding(m, fm.space)
    h = fm.transform
    # Permutations are exact, and a constant map's images are one point.
    if not (isinstance(h, AffineBijection) and isinstance(m, (AffineMap, AffineBijection))):
        return r, s
    rh, sh = rounding(h, fm.space)
    n = fm.space.dim if isinstance(fm.space, EuclideanSpace) else 1
    return abs(h.a) * r + rh * abs(m.a), abs(h.a) * s + rh * abs(m.b) * n + sh


def distance_error(rs: Tuple[float, float], size: float, d: float) -> float:
    """Bound on how far d, the float distance between the points measured
    for m(x) and m(y), lies from the exact one, with rs = image_rounding(fm,
    m) and size = |x| + |y|; the distance itself adds 4 * 2**-53 * d (abs
    and math.dist round within an ulp, normalization's expm1 within one
    more)."""
    r, s = rs
    return r * size + 2.0 * s + 4 * _U * d


def point_size(p: Point) -> float:
    """|p|, summed over coordinates; 0 for a label, which maps exactly."""
    if type(p) is str:
        return 0.0
    return sum(map(abs, p)) if type(p) is tuple else abs(p)


def _tau_slope(tau: float) -> float:
    """tau'(d) at tau = tau(d), which bounds tau's slope on [d, inf) and
    falls as tau rises; inf at tau <= 0."""
    return (1.0 - tau) ** 2 / (tau * (2.0 - tau)) if tau > 0.0 else math.inf


def consequent_fails(
    phi: PhiFunction, t: float, scaled: float, d_g: float, e_g: float, d: float, e: float
) -> bool:
    """Whether scaled = phi.eval(t) at t = t* = onset(d_g), where the raw
    consequent failed, fails it for image distance d beyond the slack. The
    exact distances lie within e_g of d_g and e of d. t* lies at most 4 *
    2**-53 below the crossing of d_g, and that of d_g + e_g at most e_g *
    tau'(d_g) above it, where t - 4 * 2**-53 <= tau(d_g) gives tau' its
    bound. At scaled == 0 it fails: membership is 0."""
    tau = crossing_time(d)
    dt = _ONSET_ERROR + (e_g * _tau_slope(t - _ONSET_ERROR) if e_g else 0.0)
    e_tau = e * _tau_slope(crossing_time(d - e) if d > e else 0.0) if e else 0.0
    slack = phi.slack(t, scaled, dt) + _ONSET_ERROR * (1.0 + 1.25 * tau) + e_tau
    return not (scaled > 0.0 and scaled >= tau - slack)


def check_g_phi(
    fm: FuzzyMetric,
    f: MapSpec,
    g: BijectionSpec,
    phi: PhiFunction,
    samples: int = 10000,
    seed: int = 0,
) -> ContractionReport:
    """Verify the contraction implication by one comparison per pair.

    The classic special cases are recovered by the arguments alone:
    a linear modulus gives the ratio form of the implication, and the
    identity bijection gives the plain (untransformed) form.
    """
    ensure_phi_class(phi)
    g.validate_bijection(fm.space)
    validate_map(fm.space, f)
    space = fm.space
    pairs = sample_pairs(space, samples, seed)
    dist = space.distance if fm.transform is None else fm.distance
    modulus = phi.eval
    f_rounding, g_rounding = image_rounding(fm, f), image_rounding(fm, g)
    found = []
    for x, y in pairs:
        d_g = dist(g.apply(space, x), g.apply(space, y))
        d_f = dist(f.apply(space, x), f.apply(space, y))
        t = onset(d_g)
        scaled = modulus(t)
        # The raw consequent passes almost every passing pair, without tau_f.
        if scaled != 0.0 and scaled / (scaled + d_f) > 1.0 - scaled:
            continue
        size = point_size(x) + point_size(y)
        e_g, e_f = distance_error(g_rounding, size, d_g), distance_error(f_rounding, size, d_f)
        if consequent_fails(phi, t, scaled, d_g, e_g, d_f, e_f):
            consequent = scaled / (scaled + d_f) if scaled != 0.0 else 0.0
            kx, ky = space.point_key(x), space.point_key(y)
            found.append((kx, ky, len(found), (x, y, t, t / (t + d_g), consequent)))
    return ContractionReport.of(found, len(pairs), "threshold-reduction")


def check_metric_phi(
    space: Space,
    f: MapSpec,
    g: BijectionSpec,
    psi: PhiFunction,
    samples: int = 10000,
    seed: int = 0,
) -> ContractionReport:
    """Check the metric-side condition d(fx, fy) <= psi(d(gx, gy)).

    A pair fails iff d_f - e_f > psi(d_g) + psi.slack(d_g, psi(d_g), e_g),
    with e_g and e_f the distances' ``distance_error`` bounds.
    Counterexample fields: ``t`` is d(gx, gy), ``antecedent`` the allowed
    bound psi(d(gx, gy)), ``consequent`` the actual d(fx, fy).
    """
    ensure_phi_class(psi)
    g.validate_bijection(space)
    validate_map(space, f)
    pairs = sample_pairs(space, samples, seed)
    f_rounding, g_rounding = rounding(f, space), rounding(g, space)
    found = []
    for x, y in pairs:
        d_g = space.distance(g.apply(space, x), g.apply(space, y))
        d_f = space.distance(f.apply(space, x), f.apply(space, y))
        bound = psi.eval(d_g)
        if d_f <= bound:
            continue
        size = point_size(x) + point_size(y)
        e_g, e_f = distance_error(g_rounding, size, d_g), distance_error(f_rounding, size, d_f)
        if d_f - e_f > bound + psi.slack(d_g, bound, e_g):
            kx, ky = space.point_key(x), space.point_key(y)
            found.append((kx, ky, d_g, len(found), (x, y, d_g, bound, d_f)))
    return ContractionReport.of(found, len(pairs), "metric-direct")


def induce_phi(k: float, cap: float) -> InducedPhi:
    """Modulus that turns a metric k-contraction on a space of diameter
    <= cap into a fuzzy contraction under the standard metric.

    Raises InvalidK for ratios outside (0, 1). The direct metric modulus
    does not transfer on its own: the antecedent only bounds the metric
    gap by t for t <= 1/2, so the crossing-time conjugate is used
    instead. It satisfies eval(crossing_time(d)) == crossing_time(k * d)
    for every d <= cap.
    """
    return InducedPhi(k, cap)


def check_fuzzy_continuity(
    fm_src: FuzzyMetric,
    fm_dst: FuzzyMetric,
    f: MapSpec,
    samples: int = 200,
    seed: int = 0,
) -> Report:
    """Empirical check that f carries the source uniformity into the target.

    For each sampled base point and each target level t, an admissible
    source level s must exclude every sampled neighbour whose image
    misses the target level. Admissibility reduces to thresholds: s must
    not exceed the source crossing time of any such neighbour. Failures
    are (x0, t, s_needed) with s_needed below ``CONTINUITY_S_FLOOR``, so jumps
    across gaps finer than the floor are reported while genuinely
    continuous maps pass.
    """
    space = fm_src.space
    validate_map(space, f)
    rng = random.Random(seed)
    if isinstance(space, FiniteSpace):
        base_points = list(space.labels)
        neighbours = list(space.labels)
    else:
        base_points = [space.sample(rng) for _ in range(min(16, samples))]
        neighbours = [space.sample(rng) for _ in range(samples)]
    witnesses = []
    checks = 0
    for x0 in base_points:
        fx0 = f.apply(space, x0)
        taus = [
            (
                threshold(fm_src, x0, y),
                threshold(fm_dst, fx0, f.apply(space, y)),
            )
            for y in neighbours
        ]
        for t in CONTINUITY_T_GRID:
            checks += 1
            bad = [tau_src for tau_src, tau_dst in taus if tau_dst >= t]
            if not bad:
                continue
            s_needed = min(bad)
            if s_needed < CONTINUITY_S_FLOOR:
                witnesses.append((x0, t, s_needed))
    law = LawCheck.of("fuzzy_continuity", checks, witnesses, MAX_COUNTEREXAMPLES)
    return Report(laws=(law,))
