"""Coincidence-point solver: iterate x -> g^{-1}(f(x)) to gz == fz.

The iteration is certified in two independent ways: the modulus horizon
N(epsilon, lam) bounds where the tail must become Cauchy when the
contraction hypothesis holds, and an empirical trailing-window check
guards against maps that fail the hypothesis off-sample. A run counts as
converged only when the window test passes at or beyond the horizon and
the residual grades at the returned point clear 1 - lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

from .errors import UnknownPoint
from .fmspace import FuzzyMetric, Point, in_uniformity, is_cauchy_window
from .maps import BijectionSpec, InverseComposite, MapSpec
from .phi import PhiFunction, ensure_phi_class, horizon
from .tnorm import Grade

_CURVE_CAP = 24


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``t0`` must exceed 1 so the contraction implication can be seeded
    unconditionally: membership(gx, gy, t) > 1 - t holds vacuously there.
    ``residual_times`` defaults to (epsilon, 0.1, 1.0).
    """

    start: Point
    epsilon: float
    lam: Grade
    t0: float = 2.0
    max_iter: int = 10000
    residual_times: Optional[Tuple[float, ...]] = None
    window: int = 2

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie strictly between 0 and 1")
        if not self.t0 > 1.0:
            raise ValueError("t0 must exceed 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.residual_times is not None:
            times = tuple(float(t) for t in self.residual_times)
            if any(t <= 0.0 for t in times):
                raise ValueError("residual times must be positive")
            object.__setattr__(self, "residual_times", times)

    @property
    def t_max(self) -> float:
        """End of the range (0, t_max] on which the modulus must be
        admissible: the orbit's scales start at t0, the checks' at 2."""
        return max(self.t0, 2.0)

    def times(self) -> Tuple[float, ...]:
        if self.residual_times is not None:
            return self.residual_times
        return (self.epsilon, 0.1, 1.0)


@dataclass(frozen=True)
class IterationRecord:
    index: int
    point: Point
    successive_grade: Grade


@dataclass(frozen=True)
class SolveResult:
    point: Point
    iterations: int
    horizon_used: int
    orbit: Tuple[Point, ...]
    residuals: Tuple[Tuple[float, Grade], ...]
    converged: bool


def orbit(
    fm: FuzzyMetric,
    cfg: SolverConfig,
    n_horizon: int,
    step: Union[InverseComposite, Callable[[Point], Point]],
) -> Tuple[Tuple[Point, ...], bool]:
    """The orbit loop both solvers run: x_n = step(x_{n-1}) from cfg.start.

    Raises UnknownPoint for a start outside the space. The loop grades
    nothing before n_horizon: from there it stops at the first n whose
    last cfg.window points, the start included, pass ``is_cauchy_window``
    under ``fm``, and otherwise after max_iter steps. Returns the orbit's
    points, the start first, and whether the window test stopped the
    loop; ``trace_records`` grades them when a trace is written.

    The single-valued solver's step is its map x -> g^{-1}(f(x)), an
    ``InverseComposite``, a pure function of the point. So once x_n
    repeats x_{n-p} bit for bit, for p = 1 or 2 (0.0 and -0.0 differ,
    and NaN repeats nothing), the rest of the orbit is that cycle: the
    loop stops stepping, fills the orbit by repeating the cycle, and
    grades only the windows that still hold points from before the
    cycle and the first p that lie wholly inside it, since the later
    ones repeat those. Points, stop and trace are those of stepping on.
    The set-valued solver's step is a bare function and is stepped every
    time: its successor depends on the shrinking scale t_n as well as
    on the point.
    """
    if not fm.space.contains(cfg.start):
        raise UnknownPoint(f"start point {cfg.start!r} lies outside the space")
    pure = isinstance(step, InverseComposite)
    if pure:
        step = step.apply_on(fm.space)
    window, max_iter = cfg.window, cfg.max_iter
    points = [cfg.start]
    for n in range(1, max_iter + 1):
        x = step(points[-1])
        points.append(x)
        if n >= n_horizon and is_cauchy_window(fm, points[-window:], cfg.epsilon, cfg.lam):
            return tuple(points), True
        if pure and (x == points[-2] or n > 1 and x == points[-3]):
            period = _period(points)
            if period:
                break
    else:
        return tuple(points), False

    # From the last point on, x_n = x_{n-period}: the window ending at n
    # lies wholly in the cycle from n = last - period + window - 1 on.
    last = len(points) - 1
    cycle = points[-period:]

    def filled(length):
        extra = length - len(points)
        return points + (cycle * (extra // period + 1))[:extra]

    n0 = max(last + 1, n_horizon)
    known = filled(min(max_iter, max(n0, last - period + window - 1) + period - 1) + 1)
    for n in range(n0, len(known)):
        if is_cauchy_window(fm, known[max(0, n + 1 - window) : n + 1], cfg.epsilon, cfg.lam):
            return tuple(known[: n + 1]), True
    return tuple(filled(max_iter + 1)), False


def _period(points: Sequence[Point]) -> int:
    """1 or 2 when the last point repeats the point 1 or 2 steps before it
    bit for bit, else 0: equal in value and in repr, which tells 0.0 from
    -0.0 and from 0."""
    x = points[-1]
    for p in (1, 2):
        if len(points) > p and x == points[-1 - p] and repr(x) == repr(points[-1 - p]):
            return p
    return 0


def trace_records(fm: FuzzyMetric, points: Sequence[Point], epsilon: float) -> Tuple[IterationRecord, ...]:
    """Step n of an orbit as IterationRecord(n, x_n, membership(x_n, x_{n-1},
    epsilon)) under ``fm``, the metric the orbit ran under: the trace lines."""
    return tuple(
        IterationRecord(n, x, fm.membership(x, prev, epsilon))
        for n, (prev, x) in enumerate(zip(points, points[1:]), 1)
    )


def solve_coincidence(
    fm: FuzzyMetric,
    f: MapSpec,
    g: BijectionSpec,
    phi: PhiFunction,
    cfg: SolverConfig,
) -> SolveResult:
    """Iterate x_{n+1} = g^{-1}(f(x_n)) from cfg.start.

    Runs ``orbit`` under the g-transformed metric with the horizon
    N = horizon(phi, t0, epsilon, lambda): it stops at the first n >= N
    where the trailing window is Cauchy, or at max_iter with
    converged=False (partial orbit returned either way).
    Residual grades membership(gz, fz, t) are reported for each
    configured time; convergence additionally requires them to reach
    1 - lambda for every time >= epsilon. Raises OverflowError when the
    orbit leaves the finite floats, which only an unbounded space allows.
    """
    ensure_phi_class(phi, t_max=cfg.t_max)
    # g_transform validates g, before f as every entry point does.
    relabeled = fm.g_transform(g)
    f.validate(fm.space)

    n_horizon = horizon(phi, cfg.t0, cfg.epsilon, cfg.lam)
    points, stopped = orbit(relabeled, cfg, n_horizon, InverseComposite(g, f))

    x = points[-1]
    # Only an unbounded space's orbit can leave the finite floats, and no
    # map kind brings it back: checked once, off the loop.
    if type(x) is tuple and not all(map(math.isfinite, x)):
        n = next(n for n, p in enumerate(points) if not all(map(math.isfinite, p)))
        raise OverflowError(f"the orbit leaves the finite floats at step {n}")
    gz = g.apply(x)
    fz = f.apply(x)
    residuals = tuple((t, fm.membership(gz, fz, t)) for t in cfg.times())
    converged = stopped and all(
        grade >= 1.0 - cfg.lam for t, grade in residuals if t >= cfg.epsilon
    )
    return SolveResult(
        point=x,
        iterations=len(points) - 1,
        horizon_used=n_horizon,
        orbit=points,
        residuals=residuals,
        converged=converged,
    )


@dataclass(frozen=True)
class PairGrade:
    i: int
    j: int
    n: int
    t: float
    grade: Grade


@dataclass(frozen=True)
class UniquenessReport:
    points: Tuple[Point, ...]
    converged: Tuple[bool, ...]
    pairwise_uniform: Tuple[Tuple[int, int, bool], ...]
    grade_curves: Tuple[PairGrade, ...]
    consistent: bool


def uniqueness_probe(
    fm: FuzzyMetric,
    f: MapSpec,
    g: BijectionSpec,
    phi: PhiFunction,
    cfg: SolverConfig,
    starts: Sequence[Point],
) -> UniquenessReport:
    """Solve from each start and compare the returned points.

    Consistency requires every run to converge and every pair of
    returned points to lie in the (epsilon, lambda) entourage. The grade
    curves report membership(f z_i, f z_j, .) at the shrinking times
    iterate(phi, t0, n), the scales along which two genuine coincidence
    points would have to agree.
    """
    if len(starts) < 2:
        raise ValueError("uniqueness probe needs at least two starts")
    results = [
        solve_coincidence(fm, f, g, phi, replace(cfg, start=s)) for s in starts
    ]
    points = tuple(r.point for r in results)
    converged = tuple(r.converged for r in results)

    pairwise = []
    curves = []
    # Every run shares the config's horizon; only the start differs.
    ns = range(0, min(results[0].horizon_used, _CURVE_CAP) + 1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pairwise.append(
                (i, j, in_uniformity(fm, points[i], points[j], cfg.epsilon, cfg.lam))
            )
            fi = f.apply(points[i])
            fj = f.apply(points[j])
            t = cfg.t0
            for n in ns:
                curves.append(PairGrade(i, j, n, t, fm.membership(fi, fj, t)))
                t = phi.eval(t)
    consistent = all(converged) and all(flag for _, _, flag in pairwise)
    return UniquenessReport(
        points=points,
        converged=converged,
        pairwise_uniform=tuple(pairwise),
        grade_curves=tuple(curves),
        consistent=consistent,
    )
