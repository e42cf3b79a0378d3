"""Set-valued contractions, fuzzy-closure membership, and the orbit solver.

The set-valued condition quantifies an existential inside the
implication: past the pair's crossing time, every image point u of the
first argument needs some image point v of the second with
membership(u, v, phi(t)) > 1 - phi(t). The orbit solver follows the
constructive chain that this guarantees, choosing the best admissible
successor at each shrinking scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .contraction import (
    ContractionReport,
    consequent_fails,
    distance_error,
    image_rounding,
    point_size,
)
from .errors import NoAdmissibleSuccessor, NotDemicompact, UnknownPoint
from .fmspace import FiniteSpace, FuzzyMetric, Point, Space, is_cauchy_window, onset
from .maps import BijectionSpec, identity_for
from .phi import PhiFunction, ensure_phi_class, horizon
from .solver import IterationRecord, SolverConfig
from .tnorm import Grade


@dataclass(frozen=True)
class SetValuedMap:
    """Finite-valued map point -> nonempty tuple of points.

    The domain is the image table's key set; iteration order follows the
    table, so orbits are reproducible for a fixed configuration.
    """

    images: Dict[Point, Tuple[Point, ...]]

    def __post_init__(self):
        if not self.images:
            raise ValueError("set-valued map needs a nonempty domain")
        table = {key: tuple(values) for key, values in self.images.items()}
        if any(not values for values in table.values()):
            raise ValueError("every image set must be nonempty")
        object.__setattr__(self, "images", table)

    def domain(self) -> Tuple[Point, ...]:
        return tuple(self.images)

    def image(self, p: Point) -> Tuple[Point, ...]:
        try:
            return self.images[p]
        except KeyError:
            raise UnknownPoint(f"{p!r} is not in the set-valued map's domain") from None


def validate_setvalued(space: Space, T: SetValuedMap) -> None:
    for key, values in T.images.items():
        if not space.contains(key):
            raise ValueError(f"domain point {key!r} lies outside the space")
        for v in values:
            if not space.contains(v):
                raise ValueError(f"image point {v!r} lies outside the space")


def check_demicompact_finite(space: Space) -> bool:
    """True only for finite spaces, where every orbit has a constant
    subsequence. Continuum spaces are never inferred demicompact, even
    when they happen to be compact; callers must assert the property."""
    return isinstance(space, FiniteSpace)


def in_fuzzy_closure(
    fm: FuzzyMetric,
    points: Sequence[Point],
    y: Point,
    levels: Sequence[Tuple[float, Grade]],
) -> bool:
    """True iff at every (epsilon, lam) level some point of the set is
    within the entourage of y. Exact for finite sets, where it reduces
    to a zero-distance member."""
    if not points:
        raise ValueError("closure membership needs a nonempty set")
    if not levels:
        raise ValueError("closure membership needs at least one level")
    for epsilon, lam in levels:
        if not any(
            fm.membership(x, y, epsilon) > 1.0 - lam for x in points
        ):
            return False
    return True


def _closest(fm: FuzzyMetric, points: Sequence[Point], u: Point, t: float) -> Tuple[Point, Grade]:
    """The point v of ``points`` with the highest membership(u, v, t), and
    that grade; ties break toward the earlier point in canonical order."""
    best, best_grade = None, -1.0
    for v in sorted(points, key=fm.space.point_key):
        grade = fm.membership(u, v, t)
        if grade > best_grade:
            best, best_grade = v, grade
    return best, best_grade


def select_successor(
    fm: FuzzyMetric,
    T: SetValuedMap,
    g: BijectionSpec,
    phi: PhiFunction,
    u: Point,
    y: Point,
    t: float,
) -> Point:
    """The image point of T(g(y)) closest to u at scale phi(t).

    Maximizes membership(u, v, phi(t)); ties break toward the earlier
    point in canonical order. Raises NoAdmissibleSuccessor when even the
    maximizer misses the strict bound, i.e. the contraction condition
    fails at this step.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    scaled = phi.eval(t)
    best, best_grade = _closest(fm, T.image(g.apply(fm.space, y)), u, scaled)
    if not best_grade > 1.0 - scaled:
        raise NoAdmissibleSuccessor(
            f"no image point of {y!r} is admissible at scale {scaled!r} "
            f"(best grade {best_grade!r})"
        )
    return best


def check_setvalued_contraction(
    fm: FuzzyMetric,
    T: SetValuedMap,
    g: BijectionSpec,
    phi: PhiFunction,
    pairs: Optional[Sequence[Tuple[Point, Point]]] = None,
) -> ContractionReport:
    """Check the set-valued contraction condition, one comparison per image point.

    With ``pairs`` omitted, every ordered pair of points whose g-image
    lies in the map's domain is checked (finite spaces); continuum
    spaces need an explicit pair plan. Each image point u of gx is judged
    as in ``check_g_phi``, at t* and with its nearest image point v of
    gy, which grades best at every scale. A counterexample records the u
    with no admissible v, with the consequent being that best grade.
    """
    ensure_phi_class(phi)
    space = fm.space
    g.validate_bijection(space)
    validate_setvalued(space, T)
    if pairs is None:
        if not isinstance(space, FiniteSpace):
            raise ValueError("an explicit pair plan is required on continuum spaces")
        eligible = [x for x in space.labels if g.apply(space, x) in T.images]
        pairs = [(x, y) for x in eligible for y in eligible]
    g_rounding, point_rounding = image_rounding(fm, g), image_rounding(fm, identity_for(space))
    found = []
    for x, y in pairs:
        gx, gy = g.apply(space, x), g.apply(space, y)
        d_g = fm.distance(gx, gy)
        t = onset(d_g)
        scaled = phi.eval(t)
        images_v = T.image(gy)
        for u in T.image(gx):
            d = min(fm.distance(u, v) for v in images_v)
            if scaled != 0.0 and scaled / (scaled + d) > 1.0 - scaled:
                continue
            e_g = distance_error(g_rounding, point_size(x) + point_size(y), d_g)
            # The exact nearest distance lies at most the largest error below d.
            e = max(
                distance_error(point_rounding, point_size(u) + point_size(v), fm.distance(u, v))
                for v in images_v
            )
            if consequent_fails(phi, t, scaled, d_g, e_g, d, e):
                best = scaled / (scaled + d) if scaled != 0.0 else 0.0
                keys = space.point_key(x), space.point_key(y), space.point_key(u)
                found.append((*keys, len(found), (x, y, t, t / (t + d_g), best, u)))
    return ContractionReport.of(found, len(pairs), "threshold-reduction")


@dataclass(frozen=True)
class MemberEvidence:
    epsilon: float
    lam: Grade
    witness: Point
    grade: Grade
    passed: bool


@dataclass(frozen=True)
class OrbitResult:
    point: Point
    orbit: Tuple[Point, ...]
    trace: Tuple[IterationRecord, ...]
    member_check: Tuple[MemberEvidence, ...]
    in_image_of_carried: bool
    in_image: Optional[bool]
    converged: bool


def solve_inclusion(
    fm: FuzzyMetric,
    T: SetValuedMap,
    g: BijectionSpec,
    phi: PhiFunction,
    cfg: SolverConfig,
    assume_demicompact: bool = False,
) -> OrbitResult:
    """Build the successor orbit from cfg.start and test the limit point.

    Step n picks x_{n+1} = select_successor(u=x_n, y=x_n, t_n) with
    t_n = iterate(phi, t0, n), which maintains the chain bound
    membership(x_{n+1}, x_n, t_{n+1}) > 1 - t_{n+1}. Stopping mirrors
    the single-valued solver: trailing window Cauchy at or past the
    horizon, else max_iter with converged=False. Each step is recorded
    as in that solver's trace, with successive grade
    membership(x_{n+1}, x_n, epsilon).

    The limit point x is then tested for closure membership in the image
    of its g-carried point at shrinking levels (``member_check``, summary
    ``in_image_of_carried``) and, when x itself is in the domain, for
    x in T(x) (``in_image``). The two coincide for the identity
    bijection; both are reported.
    """
    space = fm.space
    ensure_phi_class(phi, t_max=cfg.t_max)
    g.validate_bijection(space)
    validate_setvalued(space, T)
    if not check_demicompact_finite(space) and not assume_demicompact:
        raise NotDemicompact(
            "set-valued solve on a continuum space requires assume_demicompact=True"
        )
    if not space.contains(cfg.start):
        raise UnknownPoint(f"start point {cfg.start!r} lies outside the space")

    n_horizon = horizon(phi, cfg.t0, cfg.epsilon, cfg.lam)
    trace = []
    window_points = [cfg.start]
    x = cfg.start
    t = cfg.t0
    stopped = False
    for n in range(1, cfg.max_iter + 1):
        x_next = select_successor(fm, T, g, phi, u=x, y=x, t=t)
        trace.append(IterationRecord(n, x_next, fm.membership(x_next, x, cfg.epsilon)))
        window_points.append(x_next)
        if len(window_points) > cfg.window:
            window_points.pop(0)
        x = x_next
        t = phi.eval(t)
        if n >= n_horizon and is_cauchy_window(
            fm, window_points, cfg.epsilon, cfg.lam
        ):
            stopped = True
            break

    levels = (
        (cfg.epsilon, cfg.lam),
        (cfg.epsilon / 4.0, cfg.lam / 4.0),
        (cfg.epsilon / 16.0, cfg.lam / 16.0),
    )
    carried_image = T.image(g.apply(space, x))
    evidence = []
    for epsilon, lam in levels:
        # Grading v against x equals grading x against v bit for bit,
        # since every space's distance is exactly symmetric.
        best, grade = _closest(fm, carried_image, x, epsilon)
        evidence.append(MemberEvidence(epsilon, lam, best, grade, grade > 1.0 - lam))
    in_carried = all(e.passed for e in evidence)
    in_image = None
    if x in T.images:
        in_image = in_fuzzy_closure(fm, T.image(x), x, levels)
    return OrbitResult(
        point=x,
        orbit=(cfg.start,) + tuple(r.point for r in trace),
        trace=tuple(trace),
        member_check=tuple(evidence),
        in_image_of_carried=in_carried,
        in_image=in_image,
        converged=stopped,
    )
