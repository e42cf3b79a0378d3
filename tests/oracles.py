"""Independent oracles used by the tests.

These deliberately avoid the library's threshold reduction: the raw
implication is evaluated on a dense time grid straight from the
membership formula, so agreement with the checkers is meaningful.
"""

import math


def tau(d):
    """Closed form for the crossing of t / (t + d) with 1 - t."""
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


def dense_grid(points=10000, t_max=2.0):
    return [t_max * k / points for k in range(1, points + 1)]


def exhaustive_g_phi(space, f, g, phi, t_grid):
    """Raw single-valued implication over all ordered pairs of a finite
    space and every grid time. Returns (passed, violations)."""
    violations = []
    scaled = [phi.eval(t) for t in t_grid]
    for x in space.labels:
        for y in space.labels:
            d_g = space.distance(g.apply(space, x), g.apply(space, y))
            d_f = space.distance(f.apply(space, x), f.apply(space, y))
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
    eligible = [x for x in space.labels if g.apply(space, x) in T.images]
    for x in eligible:
        for y in eligible:
            gx, gy = g.apply(space, x), g.apply(space, y)
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
        gx = g.apply(space, x)
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


# The contraction checks as they stood before the one-distance kernel:
# a 40-step bisection for the crossing and the eta ladder and spot grid
# evaluated with membership's raw expression.

ETA_LADDER = (1e-3, 1e-6, 1e-9)
SPOT_TIMES = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)
COUNTEREXAMPLE_CAP = 64


def bisect_threshold(d, tol=1e-12):
    """The crossing of t / (t + d) with 1 - t by bisection on [0, 1]."""
    if d == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid / (mid + d) - (1.0 - mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def raw_grade(t, d):
    """membership(x, y, t) for a pair at distance d."""
    return 0.0 if t == 0.0 else t / (t + d)


def metric_distance(fm):
    """The distance fm grades with, its transform applied to both points."""

    def dist(a, b):
        if fm.transform is not None:
            a, b = fm.transform.apply(fm.space, a), fm.transform.apply(fm.space, b)
        return fm.space.distance(a, b)

    return dist


def reference_check_g_phi(fm, f, g, phi, pairs):
    """(passed, the first 64 counterexamples as (x, y, t, antecedent,
    consequent), sorted by point keys and t)."""
    space, dist = fm.space, metric_distance(fm)
    found = []
    for x, y in pairs:
        gx, gy = g.apply(space, x), g.apply(space, y)
        d_g = dist(gx, gy)
        d_f = dist(f.apply(space, x), f.apply(space, y))
        tau_g = bisect_threshold(d_g)
        for eta in ETA_LADDER:
            t = tau_g + eta
            s = phi.eval(t)
            consequent = raw_grade(s, d_f)
            if not consequent > 1.0 - s:
                found.append((x, y, t, raw_grade(t, d_g), consequent))
                break
        for t in SPOT_TIMES + (tau_g + 1e-9,):
            antecedent = raw_grade(t, d_g)
            if antecedent > 1.0 - t:
                s = phi.eval(t)
                consequent = raw_grade(s, d_f)
                if not consequent > 1.0 - s:
                    found.append((x, y, t, antecedent, consequent))
    found.sort(key=lambda ce: (space.point_key(ce[0]), space.point_key(ce[1]), ce[2]))
    return not found, found[:COUNTEREXAMPLE_CAP]


def reference_check_setvalued(fm, T, g, phi, pairs):
    """(passed, the first 64 counterexamples as (x, y, t, antecedent,
    best, u), sorted by point keys of x, y, u and t)."""
    space, dist = fm.space, metric_distance(fm)
    found = []
    for x, y in pairs:
        gx, gy = g.apply(space, x), g.apply(space, y)
        d_g = dist(gx, gy)
        tau_g = bisect_threshold(d_g)
        for u in T.image(gx):
            for eta in ETA_LADDER:
                t = tau_g + eta
                s = phi.eval(t)
                best = max(raw_grade(s, dist(u, v)) for v in T.image(gy))
                if not best > 1.0 - s:
                    found.append((x, y, t, raw_grade(t, d_g), best, u))
                    break
    found.sort(
        key=lambda ce: (space.point_key(ce[0]), space.point_key(ce[1]), space.point_key(ce[5]), ce[2])
    )
    return not found, found[:COUNTEREXAMPLE_CAP]
