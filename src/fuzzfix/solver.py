"""Coincidence-point solver: iterate x -> g^{-1}(f(x)) to gz == fz.

The iteration is certified in two independent ways: the modulus horizon
N(epsilon, lam) bounds where the tail must become Cauchy when the
contraction hypothesis holds, and an empirical trailing-window check
guards against maps that fail the hypothesis off-sample. A run counts as
converged only when the window test passes at or beyond the horizon and
the residual grades at the returned point clear 1 - lam.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from .errors import UnknownPoint
from .fmspace import FuzzyMetric, Point, Space, in_uniformity, is_cauchy_window
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
    step: Callable[[Space, Point], Point],
) -> Tuple[Tuple[Point, ...], bool]:
    """The orbit loop both solvers run: x_n = step(space, x_{n-1}) from cfg.start.

    Raises UnknownPoint for a start outside the space. The loop grades
    nothing before n_horizon: from there it stops at the first n whose
    last cfg.window points, the start included, pass ``is_cauchy_window``
    under ``fm``, and otherwise after max_iter steps. Returns the orbit's
    points, the start first, and whether the window test stopped the
    loop; ``trace_records`` grades them when a trace is written.
    """
    space = fm.space
    if not space.contains(cfg.start):
        raise UnknownPoint(f"start point {cfg.start!r} lies outside the space")
    points = [cfg.start]
    for n in range(1, cfg.max_iter + 1):
        points.append(step(space, points[-1]))
        if n >= n_horizon and is_cauchy_window(fm, points[-cfg.window :], cfg.epsilon, cfg.lam):
            return tuple(points), True
    return tuple(points), False


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
    1 - lambda for every time >= epsilon.
    """
    space = fm.space
    ensure_phi_class(phi, t_max=cfg.t_max)
    # g_transform validates g, before f as every entry point does.
    relabeled = fm.g_transform(g)
    f.validate(space)

    n_horizon = horizon(phi, cfg.t0, cfg.epsilon, cfg.lam)
    points, stopped = orbit(relabeled, cfg, n_horizon, InverseComposite(g, f).apply)

    x = points[-1]
    gz = g.apply(space, x)
    fz = f.apply(space, x)
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

    space = fm.space
    pairwise = []
    curves = []
    # Every run shares the config's horizon; only the start differs.
    ns = range(0, min(results[0].horizon_used, _CURVE_CAP) + 1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pairwise.append(
                (i, j, in_uniformity(fm, points[i], points[j], cfg.epsilon, cfg.lam))
            )
            fi = f.apply(space, points[i])
            fj = f.apply(space, points[j])
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
