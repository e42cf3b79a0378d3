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

from .contraction import ContractionReport, exact_square, failing_rows, image_distances
from .errors import NoAdmissibleSuccessor, NotDemicompact, UnknownPoint
from .fmspace import FiniteSpace, FuzzyMetric, Point, Space
from .maps import BijectionSpec, identity_for
from .phi import PhiFunction, ensure_phi_class, horizon
from .solver import SolverConfig, orbit
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
    bound: bool = True,
) -> Point:
    """The image point of T(g(y)) closest to u at scale phi(t).

    Maximizes membership(u, v, phi(t)); ties break toward the earlier
    point in canonical order. Raises NoAdmissibleSuccessor when even the
    maximizer misses the strict bound, i.e. the contraction condition
    fails at this step; with ``bound`` False, as the hypothesis sets none,
    the maximizer is returned unchecked.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    scaled = phi.eval(t)
    best, best_grade = _closest(fm, T.image(g.apply(y)), u, scaled)
    if bound and not best_grade > 1.0 - scaled:
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
    as in ``check_g_phi``, with its nearest image point v of gy, which
    grades best at every scale. A counterexample records the u with no
    admissible v, with the consequent being that best grade. A finite
    space's rows are built in label order, ties in scan order.
    """
    ensure_phi_class(phi)
    space, finite = fm.space, isinstance(fm.space, FiniteSpace)
    g.validate_bijection(space)
    validate_setvalued(space, T)
    if pairs is None:
        if not finite:
            raise ValueError("an explicit pair plan is required on continuum spaces")
        eligible = [x for x in space.labels if g.apply(x) in T.images]
        pairs = [(x, y) for x in eligible for y in eligible]
    key = space.point_key  # a finite space's index: it raises UnknownPoint on a label of no point
    plan = sorted(pairs, key=lambda pair: (key(pair[0]), key(pair[1]))) if finite else pairs
    d_gs, = image_distances(space, (g,), fm.transform, plan)
    points = {p for values in T.images.values() for p in values}
    between = [(u, v) for u in points for v in points]
    identity, h = identity_for(space), fm.transform
    near = dict(zip(between, image_distances(space, (identity,), h, between)[0]))
    rows, row_d_gs, d_fs = [], [], []
    for (x, y), d_g in zip(plan, d_gs):
        images_u, images_v = T.image(g.apply(x)), T.image(g.apply(y))
        for u in sorted(images_u, key=key) if finite else images_u:
            rows.append((x, y, u))
            row_d_gs.append(d_g)
            d_fs.append(min(near[u, v] for v in images_v))

    def distances(x, y, u):
        gy = g.apply(y)
        return fm.distance(g.apply(x), gy), min(fm.distance(u, v) for v in T.image(gy))

    def squares(row):
        x, y, u = row
        return exact_square(h, g, x, y), min(exact_square(h, identity, u, v) for v in T.image(g.apply(y)))

    failing = failing_rows(phi, rows, row_d_gs, d_fs, space.normalize, None if finite else squares)
    return ContractionReport.of(space, phi, failing, len(pairs), distances)


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
    membership(x_{n+1}, x_n, t_{n+1}) > 1 - t_{n+1}. The steps run in
    ``solver.orbit``, the single-valued solver's loop, under the plain
    metric: it stops with the trailing window Cauchy at or past the
    horizon, else at max_iter with converged=False, and returns the orbit,
    the start first.

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
    # A finite space is demicompact: every orbit has a constant subsequence.
    # A continuum space is never inferred so, even when it happens to be
    # compact; the caller must assert the property.
    if not isinstance(space, FiniteSpace) and not assume_demicompact:
        raise NotDemicompact(
            "set-valued solve on a continuum space requires assume_demicompact=True"
        )

    t, bound = cfg.t0, False

    def successor(x: Point) -> Point:
        nonlocal t, bound
        x_next = select_successor(fm, T, g, phi, u=x, y=x, t=t, bound=bound)
        t, bound = phi.eval(t) if bound else t, True
        return x_next

    points, stopped = orbit(fm, cfg, horizon(phi, cfg.t0, cfg.epsilon, cfg.lam), successor)
    x = points[-1]

    levels = (
        (cfg.epsilon, cfg.lam),
        (cfg.epsilon / 4.0, cfg.lam / 4.0),
        (cfg.epsilon / 16.0, cfg.lam / 16.0),
    )
    # A set reaches a level iff its best grade does. Grading v against x
    # equals grading x against v bit for bit, since every space's distance
    # is exactly symmetric.
    carried_image = T.image(g.apply(x))
    evidence = []
    for epsilon, lam in levels:
        best, grade = _closest(fm, carried_image, x, epsilon)
        evidence.append(MemberEvidence(epsilon, lam, best, grade, grade > 1.0 - lam))
    in_carried = all(e.passed for e in evidence)
    in_image = None
    if x in T.images:
        in_image = all(_closest(fm, T.image(x), x, epsilon)[1] > 1.0 - lam for epsilon, lam in levels)
    return OrbitResult(
        point=x,
        orbit=points,
        member_check=tuple(evidence),
        in_image_of_carried=in_carried,
        in_image=in_image,
        converged=stopped,
    )
