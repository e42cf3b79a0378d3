"""Checkers for the contraction implications, and the induced modulus.

The single-valued condition under test is an implication over all t > 0:

    membership(gx, gy, t) > 1 - t   implies
    membership(fx, fy, phi(t)) > 1 - phi(t).

For the standard fuzzy metric each side is a strict threshold crossing,
so the whole t-quantifier reduces exactly: the antecedent holds iff
t > tau(gx, gy) and the consequent iff phi(t) > tau(fx, fy). With phi
nondecreasing and right-continuous the implication therefore holds iff
phi(tau_g + eta) > tau_f for eta descending to 0. Only the pair sampling
is approximate; the t-quantifier is not. A small raw t-grid is spot
checked as well, so reported counterexamples carry concrete times.

Every term of the check depends on a pair only through its two
distances d(gx, gy) and d(fx, fy), so each is computed once per pair
and every grade is membership's own expression t / (t + d) on it. The
crossing comes from ``distance_threshold``, the spot times' modulus
values are taken once per check, and counterexamples are kept as sort
keys until the first MAX_COUNTEREXAMPLES are selected.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fmspace import FiniteSpace, FuzzyMetric, Point, Space, distance_threshold, threshold
from .maps import BijectionSpec, MapSpec, validate_map
from .phi import InducedPhi, PhiFunction, ensure_phi_class
from .report import LawCheck, Report

# Strictness ladder: pass requires phi(tau_g + eta) > tau_f for each of
# these offsets. Equality in the limit at tau_g itself is accepted; the
# implication only quantifies over t strictly above the crossing.
ETA_LADDER = (1e-3, 1e-6, 1e-9)

SPOT_TIMES = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)

MAX_COUNTEREXAMPLES = 64

# Affine maps with offsets round before the distances are taken, so an
# exact metric comparison would flag mathematically tight cases by an
# ulp; violations of interest are many orders of magnitude larger.
_METRIC_SLACK = 1e-12

DEFAULT_T_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
DEFAULT_S_GRID = (
    1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8,
)


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


def select_counterexamples(found: list) -> Tuple[CounterExample, ...]:
    """The first MAX_COUNTEREXAMPLES failures in report order.

    Each entry of ``found`` is a flat tuple: the sort key's components,
    the failure's position in the scan (ties keep scan order, as a
    stable sort would) and last the CounterExample fields as a tuple.
    heapq.nsmallest equals sorted(found)[:n], and only the kept entries
    become objects.
    """
    return tuple(
        CounterExample(*entry[-1])
        for entry in heapq.nsmallest(MAX_COUNTEREXAMPLES, found)
    )


def check_g_phi(
    fm: FuzzyMetric,
    f: MapSpec,
    g: BijectionSpec,
    phi: PhiFunction,
    samples: int = 10000,
    seed: int = 0,
) -> ContractionReport:
    """Verify the contraction implication via threshold reduction.

    The classic special cases are recovered by the arguments alone:
    a linear modulus gives the ratio form of the implication, and the
    identity bijection gives the plain (untransformed) form.
    """
    ensure_phi_class(phi)
    g.validate_bijection(fm.space)
    validate_map(fm.space, f)
    space = fm.space
    pairs = sample_pairs(space, samples, seed)
    spots = tuple((t, phi.eval(t)) for t in SPOT_TIMES)
    found = []
    for x, y in pairs:
        gx, gy = g.apply(space, x), g.apply(space, y)
        fx, fy = f.apply(space, x), f.apply(space, y)
        d_g, d_f = fm.distance(gx, gy), fm.distance(fx, fy)
        tau_g = distance_threshold(d_g)
        # Grades are membership's t / (t + d), 0 at t == 0. The grid-exact
        # crossing is never below the true one, so the antecedent holds at
        # every tau_g + eta; the consequent is evaluated raw, which keeps
        # recorded violations replayable.
        failed = []
        for eta in ETA_LADDER:
            t = tau_g + eta
            scaled = phi.eval(t)
            consequent = scaled / (scaled + d_f) if scaled != 0.0 else 0.0
            if not consequent > 1.0 - scaled:
                failed.append((t, t / (t + d_g), consequent))
                break
        last = tau_g + 1e-9
        for t, scaled in spots + ((last, phi.eval(last)),):
            antecedent = t / (t + d_g)
            if antecedent > 1.0 - t:
                consequent = scaled / (scaled + d_f) if scaled != 0.0 else 0.0
                if not consequent > 1.0 - scaled:
                    failed.append((t, antecedent, consequent))
        if failed:
            kx, ky = space.point_key(x), space.point_key(y)
            for t, antecedent, consequent in failed:
                found.append((kx, ky, t, len(found), (x, y, t, antecedent, consequent)))
    return ContractionReport(
        passed=not found,
        checked_pairs=len(pairs),
        counterexamples=select_counterexamples(found),
        method="threshold-reduction",
    )


def check_metric_phi(
    space: Space,
    f: MapSpec,
    g: BijectionSpec,
    psi: PhiFunction,
    samples: int = 10000,
    seed: int = 0,
) -> ContractionReport:
    """Check the metric-side condition d(fx, fy) <= psi(d(gx, gy)).

    Counterexample fields: ``t`` is d(gx, gy), ``antecedent`` the allowed
    bound psi(d(gx, gy)), ``consequent`` the actual d(fx, fy).
    """
    ensure_phi_class(psi)
    g.validate_bijection(space)
    validate_map(space, f)
    pairs = sample_pairs(space, samples, seed)
    found = []
    for x, y in pairs:
        d_g = space.distance(g.apply(space, x), g.apply(space, y))
        d_f = space.distance(f.apply(space, x), f.apply(space, y))
        bound = psi.eval(d_g)
        if not d_f <= bound + _METRIC_SLACK * (1.0 + d_g):
            kx, ky = space.point_key(x), space.point_key(y)
            found.append((kx, ky, d_g, len(found), (x, y, d_g, bound, d_f)))
    return ContractionReport(
        passed=not found,
        checked_pairs=len(pairs),
        counterexamples=select_counterexamples(found),
        method="metric-direct",
    )


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
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    s_grid: Sequence[float] = DEFAULT_S_GRID,
) -> Report:
    """Empirical check that f carries the source uniformity into the target.

    For each sampled base point and each target level t, an admissible
    source level s must exclude every sampled neighbour whose image
    misses the target level. Admissibility reduces to thresholds: s must
    not exceed the source crossing time of any such neighbour. Failures
    are (x0, t, s_needed) with s_needed below the grid floor, so jumps
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
        for t in t_grid:
            checks += 1
            bad = [tau_src for tau_src, tau_dst in taus if tau_dst >= t]
            if not bad:
                continue
            s_needed = min(bad)
            if not any(s <= s_needed for s in s_grid):
                witnesses.append((x0, t, s_needed))
    law = LawCheck.of("fuzzy_continuity", checks, witnesses, MAX_COUNTEREXAMPLES)
    return Report(laws=(law,))
