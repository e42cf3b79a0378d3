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
