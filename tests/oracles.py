"""Independent oracles used by the tests.

These deliberately avoid the library's threshold reduction: the raw
implication is evaluated on a dense time grid straight from the
membership formula, or decided exactly on the real maps and moduli
(rationals, and 60-digit decimals where a root or an exponential
enters), so agreement with the checkers is meaningful.
"""

import math
import struct
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import fuzzfix as fx


def tau(d):
    """The crossing of t / (t + d) with 1 - t, in the float expression of
    fuzzfix.crossing_time, so that an induced orbit below is the library's."""
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / d)) if d > 1e-300 else math.sqrt(d)


def dense_grid(points=10000, t_max=2.0):
    return [t_max * k / points for k in range(1, points + 1)]


def exhaustive_g_phi(space, f, g, phi, t_grid):
    """Raw single-valued implication over all ordered pairs of a finite
    space and every grid time. Returns (passed, violations)."""
    violations = []
    scaled = [phi.eval(t) for t in t_grid]
    for x in space.labels:
        for y in space.labels:
            d_g = space.distance(g.apply(x), g.apply(y))
            d_f = space.distance(f.apply(x), f.apply(y))
            for t, s in zip(t_grid, scaled):
                if t / (t + d_g) > 1.0 - t:
                    m_f = s / (s + d_f) if s > 0.0 else 0.0
                    if not m_f > 1.0 - s:
                        violations.append((x, y, t))
                        break
    return not violations, violations


def exhaustive_setvalued(space, fm_labels_T, g, phi, t_grid):
    """Raw set-valued implication over all ordered pairs whose g-image
    lies in the map's domain. ``fm_labels_T`` is the SetValuedMap."""
    T = fm_labels_T
    scaled = [phi.eval(t) for t in t_grid]
    eligible = [x for x in space.labels if g.apply(x) in T.images]
    for x in eligible:
        for y in eligible:
            gx, gy = g.apply(x), g.apply(y)
            d_g = space.distance(gx, gy)
            for t, s in zip(t_grid, scaled):
                if t / (t + d_g) > 1.0 - t:
                    for u in T.image(gx):
                        best = 0.0
                        for v in T.image(gy):
                            d_uv = space.distance(u, v)
                            m = s / (s + d_uv) if s > 0.0 else 0.0
                            best = max(best, m)
                        if not best > 1.0 - s:
                            return False, (x, y, u, t)
    return True, None


def inclusion_points(space, T, g):
    """Brute-force set {x : x in T(g(x))} on a finite space."""
    out = []
    for x in space.labels:
        gx = g.apply(x)
        if gx in T.images and x in T.image(gx):
            out.append(x)
    return out


# Moduli from their definitions, written as the library's float
# expressions so that a float orbit here is the library's float orbit.


def linear_step(k):
    return lambda t: k * t


def rational_step(t):
    return t / (1.0 + t)


def induced_step(k, cap):
    tau_cap = tau(cap)
    anchor = tau(k * cap)

    def step(t):
        if t == 0.0:
            return 0.0
        if t <= tau_cap:
            return tau(k * t * t / (1.0 - t))
        return anchor + k * (t - tau_cap)

    return step


def table_step(points):
    def step(t):
        value = 0.0
        for bt, bv in points:
            if bt <= t:
                value = bv
        return value

    return step


def orbit_count(step, t0, target, limit):
    """Least n with the n-th float iterate of ``step`` at or below target,
    by plain iteration; None past ``limit`` steps."""
    n, value = 0, t0
    while value > target:
        if n == limit:
            return None
        value = step(value)
        n += 1
    return n


def relabeled_distance(space, g):
    """d(g(a), g(b)) by hand for a point function g: |g(a) - g(b)| on an
    interval, the table's entry on a finite space, the Euclidean distance
    of two tuples on a box of two or more dimensions."""
    if isinstance(space, fx.FiniteSpace):
        index = {label: i for i, label in enumerate(space.labels)}
        return lambda a, b: space.dist[index[g(a)]][index[g(b)]]
    if isinstance(space, fx.EuclideanSpace):
        assert space.dim >= 2, "a 1-D box point's distance is |a[0] - b[0]|"
        return lambda a, b: math.dist(g(a), g(b))
    return lambda a, b: abs(g(a) - g(b))


def reference_orbit(step, distance, start, epsilon, lam, window, max_iter, n_horizon):
    """The solvers' stop rule, written out without the library's loop.

    Steps x_n = step(x_{n-1}) from start and records (n, x_n, grade) with
    grade = epsilon / (epsilon + distance(x_n, x_{n-1})). Stops at the
    first n >= n_horizon at which every pair of the last ``window``
    points of the orbit, the start among them, grades above 1 - lam at
    epsilon; else after max_iter steps. Returns (trace, stopped).
    """
    orbit = [start]
    trace = []
    for n in range(1, max_iter + 1):
        orbit.append(step(orbit[-1]))
        trace.append((n, orbit[-1], epsilon / (epsilon + distance(orbit[-1], orbit[-2]))))
        last = orbit[-window:]
        if n >= n_horizon and all(
            epsilon / (epsilon + distance(a, b)) > 1.0 - lam
            for i, a in enumerate(last)
            for b in last[i + 1:]
        ):
            return trace, True
    return trace, False


def table_laws_dense(points, t_max, lattice=256):
    """Admissibility of a step modulus on (0, t_max], by brute force.

    The times are a lattice of spacing t_max / lattice plus every
    breakpoint, so no step is skipped. Returns the verdicts of
    (nondecreasing, below_identity, iterates_vanish); orbits start at
    every time and must reach 0 within 2 * len(points) + 2 steps.
    """
    step = table_step(points)
    times = sorted(
        {t_max * i / lattice for i in range(1, lattice + 1)}
        | {t for t, _ in points if 0.0 < t <= t_max}
    )
    values = [step(t) for t in times]
    nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
    below = all(v < t for t, v in zip(times, values))
    vanish = True
    for t in times:
        value = t
        for _ in range(2 * len(points) + 2):
            value = step(value)
        vanish = vanish and value == 0.0
    return nondecreasing, below, vanish


# The contraction checks decided exactly, with the maps and moduli taken
# as the real functions their parameters define. A pair passes iff
# phi(tau(d_g)) >= tau(d_f) for the exact distances of the exact images,
# evaluated in 60-digit decimals; a tie (within TIE) passes unless phi is
# a step function, which stays flat past it. Nothing here uses the
# library's exact pair rules. Each failing pair is reported as the checker replays
# it: at the float t* where the antecedent switches on (fuzzfix.onset),
# which the oracle confirms in floats at t* and one ulp below, and in
# rationals within 4 units of 2**-53 of the exact crossing.

U = 2.0 ** -53
ONSET_ERROR = 4 * U
COUNTEREXAMPLE_CAP = 64
DIGITS = 60
TIE = Decimal("1e-45")


def raw_grade(t, d):
    """membership(x, y, t) for a pair at distance d."""
    return 0.0 if t == 0.0 else t / (t + d)


def exact_crosses(t, d):
    """Whether t / (t + d) > 1 - t in rationals on the floats t and d,
    that is t * t + t * d - d > 0 (t > 0)."""
    t, d = Fraction(t), Fraction(d)
    return t > 0 and t * t + t * d - d > 0


def reaches_crossing(r, d):
    """Whether the rational r >= 0 is at least the exact crossing of d."""
    r, d = Fraction(r), Fraction(d)
    return r >= 0 and r * r + r * d - d >= 0


def checked_onset(d):
    """fuzzfix.onset(d), confirmed at t* and one ulp below."""
    t = fx.onset(d)
    assert raw_grade(t, d) > 1.0 - t
    below = math.nextafter(t, 0.0)
    assert not raw_grade(below, d) > 1.0 - below
    assert not exact_crosses(Fraction(t) - Fraction(ONSET_ERROR), d)
    assert exact_crosses(Fraction(t) + Fraction(ONSET_ERROR), d)
    return t


def dec(q):
    """A float or a Fraction as a Decimal, to DIGITS digits."""
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_tau(d):
    """The crossing of t / (t + d) with 1 - t, for a Decimal d."""
    return 2 / (1 + (1 + 4 / d).sqrt()) if d > 0 else Decimal(0)


def exact_image(space, m, p):
    """m(p) without rounding: affine maps in rationals, per coordinate."""
    if not isinstance(m, (fx.AffineMap, fx.AffineBijection)):
        return m.apply(p)
    a, b = Fraction(m.a), Fraction(m.b)
    if isinstance(p, tuple):
        return tuple(a * Fraction(c) + b for c in p)
    return a * Fraction(p) + b


def exact_distance(fm, m, p, q):
    """The distance fm grades between m(p) and m(q), without rounding."""
    space = fm.space
    p, q = exact_image(space, m, p), exact_image(space, m, q)
    if fm.transform is not None:
        p, q = exact_image(space, fm.transform, p), exact_image(space, fm.transform, q)
    if isinstance(space, fx.FiniteSpace):
        d = dec(space.dist[space.index(p)][space.index(q)])
    elif isinstance(p, tuple):
        d = dec(sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))).sqrt()
    else:
        d = dec(abs(Fraction(p) - Fraction(q)))
    return 1 - (-d).exp() if space.normalize else d


def exact_phi(phi, t):
    """phi at the Decimal t, from the modulus's definition."""
    if isinstance(phi, fx.LinearPhi):
        return dec(phi.k) * t
    if isinstance(phi, fx.RationalPhi):
        return t / (1 + t)
    if isinstance(phi, fx.InducedPhi):
        k, cap = dec(phi.k), dec(phi.cap)
        if t <= exact_tau(cap):
            return exact_tau(k * t * t / (1 - t)) if t > 0 else Decimal(0)
        return exact_tau(k * cap) + k * (t - exact_tau(cap))
    value = Decimal(0)
    for bt, bv in phi.points:
        if dec(bt) <= t:
            value = dec(bv)
    return value


def exact_pass(phi, d_g, d_f):
    """Whether phi(t) > tau(d_f) for every t > tau(d_g), for Decimal distances.
    A table takes the value of its last breakpoint bt <= tau(d_g), found as
    d_g (1 - bt) >= bt**2 on the distance itself, so that a crossing that
    lies exactly on a breakpoint does not hang on the rounding of tau."""
    if isinstance(phi, fx.TablePhi):
        value = Decimal(0)
        for bt, bv in phi.points:
            if bt < 1 and d_g * (1 - dec(bt)) >= dec(bt) ** 2:
                value = dec(bv)
        margin = value - exact_tau(d_f)
    else:
        margin = exact_phi(phi, exact_tau(d_g)) - exact_tau(d_f)
    if abs(margin) <= TIE:
        return not isinstance(phi, fx.TablePhi)
    return margin > 0


def metric_distance(fm):
    """The distance fm grades with, its transform applied to both points."""

    def dist(a, b):
        if fm.transform is not None:
            a, b = fm.transform.apply(a), fm.transform.apply(b)
        return fm.space.distance(a, b)

    return dist


def reference_check_g_phi(fm, f, g, phi, pairs):
    """(passed, the first 64 counterexamples as (x, y, t, antecedent,
    consequent), sorted by point keys)."""
    space, dist = fm.space, metric_distance(fm)
    found = []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for x, y in pairs:
            if exact_pass(phi, exact_distance(fm, g, x, y), exact_distance(fm, f, x, y)):
                continue
            d_g = dist(g.apply(x), g.apply(y))
            d_f = dist(f.apply(x), f.apply(y))
            t = checked_onset(d_g)
            found.append((x, y, t, raw_grade(t, d_g), raw_grade(phi.eval(t), d_f)))
    found.sort(key=lambda ce: (space.point_key(ce[0]), space.point_key(ce[1])))
    return not found, found[:COUNTEREXAMPLE_CAP]


def reference_check_setvalued(fm, T, g, phi, pairs):
    """(passed, the first 64 counterexamples as (x, y, t, antecedent,
    best, u), sorted by point keys of x, y and u). Each image point u
    needs one image point v of gy that passes with it."""
    space, dist = fm.space, metric_distance(fm)
    ident = fx.identity_for(space)
    found = []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for x, y in pairs:
            gx, gy = g.apply(x), g.apply(y)
            d_g = exact_distance(fm, g, x, y)
            for u in T.image(gx):
                d = min(exact_distance(fm, ident, u, v) for v in T.image(gy))
                if exact_pass(phi, d_g, d):
                    continue
                t = checked_onset(dist(gx, gy))
                best = raw_grade(phi.eval(t), min(dist(u, v) for v in T.image(gy)))
                found.append((x, y, t, raw_grade(t, dist(gx, gy)), best, u))
    found.sort(key=lambda ce: (space.point_key(ce[0]), space.point_key(ce[1]), space.point_key(ce[5])))
    return not found, found[:COUNTEREXAMPLE_CAP]


def finite_space_fault(labels, table):
    """The message fuzzfix.FiniteSpace(labels, table) raises, or None if it
    accepts the table: the checks in their documented order, the triangle
    inequality by a plain scan of every triple (i, j, k) in that order."""
    n = len(labels)
    if n == 0:
        return "finite space needs at least one point"
    if len(set(labels)) < n:
        return "labels must be unique"
    for label in labels:
        if not isinstance(label, str) or label == "" or any(c.isspace() for c in label):
            return "labels must be nonempty strings without whitespace"
    if len(table) != n or {len(row) for row in table} != {n}:
        return "distance table must be square and match the labels"
    for i in range(n):
        if not table[i][i] == 0.0:
            return f"d({labels[i]}, {labels[i]}) must be 0"
        for j in range(n):
            if table[i][j] < 0.0:
                return "distances must be nonnegative"
            if not table[i][j] == table[j][i]:
                return "distance table must be symmetric"
    for i, j, k in product(range(n), repeat=3):
        if table[i][j] + table[j][k] < table[i][k]:
            return f"triangle inequality fails at ({labels[i]}, {labels[j]}, {labels[k]})"
    return None


# The fold margin from each t-norm's formula, searched for over the bit
# patterns of nonnegative floats, which order as the floats themselves do.


def fold_level(variant, v, depth):
    """v combined with itself depth times, left associated, in the float
    expressions of the product, minimum and Lukasiewicz t-norms."""
    if v == 1.0:
        return 1.0  # the unit law, which Lukasiewicz keeps exact
    acc = v
    for _ in range(depth - 1):
        if variant == "product":
            acc = acc * v
        elif variant == "minimum":
            acc = min(acc, v)
        else:
            acc = max(acc + v - 1.0, 0.0)
    return acc


def largest_margin(variant, lam, depth):
    """The largest float delta whose level 1 - delta, in floats, folds
    strictly above 1 - lam, by bisection over the bit patterns of [0, 1]."""

    def margin(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    target = 1.0 - lam
    assert target < 1.0, "delta = 0 must pass"
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fold_level(variant, 1.0 - margin(mid), depth) > target:
            lo = mid
        else:
            hi = mid
    return margin(lo)
