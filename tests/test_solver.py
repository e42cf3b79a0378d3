import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import fuzzfix as fx
from conftest import line_space, raises_exactly
from oracles import linear_step, longest_passing_length, orbit_count, reference_orbit, relabeled_distance


def test_flagship_solve(flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg):
    # oracle: the coincidence point solves 1 - z = z / 2
    res = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    assert res.converged
    assert abs(res.point - 2.0 / 3.0) <= 1e-6
    assert res.iterations <= 100
    assert res.iterations >= res.horizon_used


def test_constant_map_converges_fast(flagship_fm, flagship_g):
    # g z = 0.25 = f z at z = 0.75; with a coarse level the horizon is 2
    cfg = fx.SolverConfig(start=0.1, epsilon=0.5, lam=0.5, t0=2.0)
    res = fx.solve_coincidence(
        flagship_fm, fx.ConstantMap(0.25), flagship_g, fx.LinearPhi(0.5), cfg
    )
    assert res.converged
    assert res.point == 0.75
    assert res.iterations <= 2


def test_constant_map_on_a_box_inverts_g_per_coordinate():
    # A constant f is no affine map, so each step is g^-1(f(x)) through
    # AffineBijection.invert_apply on the box point: g z = -z = (0.25, -0.5).
    fm = fx.FuzzyMetric(fx.EuclideanSpace(2, 1.0), fx.TNorm("product"))
    cfg = fx.SolverConfig(start=(0.5, 0.5), epsilon=1e-3, lam=1e-3, t0=2.0)
    g = fx.AffineBijection(-1.0, 0.0)
    res = fx.solve_coincidence(fm, fx.ConstantMap((0.25, -0.5)), g, fx.LinearPhi(0.5), cfg)
    assert res.converged
    assert res.orbit[1] == res.point == (-0.25, 0.5)
    assert g.invert_apply((0.25, -0.5)) == (-0.25, 0.5)


def test_start_at_solution_runs_to_horizon(flagship_fm, flagship_g):
    cfg = fx.SolverConfig(start=0.75, epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_coincidence(
        flagship_fm, fx.ConstantMap(0.25), flagship_g, fx.LinearPhi(0.5), cfg
    )
    assert res.converged
    assert res.iterations == res.horizon_used
    assert all(grade == 1.0 for _, grade in res.residuals)


def test_trace_recurrence(flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg):
    res = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    space = flagship_fm.space
    assert res.orbit[0] == flagship_cfg.start
    assert len(res.orbit) == res.iterations + 1
    for prev, point in zip(res.orbit, res.orbit[1:]):
        lhs = flagship_g.apply(point)
        rhs = flagship_f.apply(prev)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_horizon_certificate(flagship_phi, flagship_cfg):
    n = fx.horizon(
        flagship_phi, flagship_cfg.t0, flagship_cfg.epsilon, flagship_cfg.lam
    )
    assert fx.iterate(flagship_phi, flagship_cfg.t0, n) <= min(
        flagship_cfg.epsilon, flagship_cfg.lam
    )


def test_residuals_monotone_in_t(flagship_fm, flagship_f, flagship_g, flagship_phi):
    cfg = fx.SolverConfig(
        start=0.0,
        epsilon=1e-3,
        lam=1e-3,
        t0=2.0,
        residual_times=(1e-3, 0.01, 0.1, 0.5, 1.0),
    )
    res = fx.solve_coincidence(flagship_fm, flagship_f, flagship_g, flagship_phi, cfg)
    grades = [grade for _, grade in res.residuals]
    assert grades == sorted(grades)


def test_residual_bound_for_converged_runs(
    flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
):
    res = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    for t, grade in res.residuals:
        if t >= flagship_cfg.epsilon:
            assert grade >= 1.0 - flagship_cfg.lam


def test_window_invariant_at_stop(
    flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
):
    res = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    mg = flagship_fm.g_transform(flagship_g)
    tail = res.orbit[-flagship_cfg.window :]
    assert fx.is_cauchy_window(mg, tail, flagship_cfg.epsilon, flagship_cfg.lam)


# ------------------------------------------- stop rule against a reference

# Sixteen labels 0.25 apart: a step grades below most windows' level.
STEPS = line_space(tuple(0.25 * i for i in range(16)))
L = STEPS.labels


def _swapping(a, b):
    """The permutation table of STEPS that swaps labels a and b."""
    return {**{p: p for p in L}, a: b, b: a}


def _coincidence_case(fm, f, g, g_point, step, start, epsilon, lam, k):
    """solve_coincidence, the metric its orbit runs under, and its
    reference: the orbit's step and distance by hand, and whether the
    residual grades at z clear 1 - lam."""
    space = fm.space
    cfg = fx.SolverConfig(start=start, epsilon=epsilon, lam=lam)

    def solve(cfg):
        return fx.solve_coincidence(fm, f, g, fx.LinearPhi(k), cfg)

    def residuals_pass(z):
        d = relabeled_distance(space, lambda p: p)(g_point(z), f.apply(z))
        return all(t / (t + d) >= 1.0 - lam for t in cfg.times() if t >= epsilon)

    return cfg, solve, fm.g_transform(g), step, relabeled_distance(space, g_point), k, residuals_pass


def _inclusion_case(images, g_table, start, epsilon, lam, k):
    """solve_inclusion on STEPS and its reference: the successor of x
    picked by hand, closest to x at scale k * t_n among the images of
    g(x), ties to the earlier label."""
    fm = fx.FuzzyMetric(STEPS, fx.TNorm("product"))
    g = fx.PermutationBijection(g_table)
    T = fx.SetValuedMap(images)
    cfg = fx.SolverConfig(start=start, epsilon=epsilon, lam=lam)
    distance = relabeled_distance(STEPS, lambda p: p)
    t = cfg.t0

    def solve(cfg):
        return fx.solve_inclusion(fm, T, g, fx.LinearPhi(k), cfg)

    def step(x):
        nonlocal t
        t = k * t
        best, best_grade = None, -1.0
        for v in sorted(images[g_table[x]], key=L.index):
            grade = t / (t + distance(x, v))
            if grade > best_grade:
                best, best_grade = v, grade
        assert best_grade > 1.0 - t
        return best

    return cfg, solve, fm, step, distance, k, lambda z: True


# Up the labels two images at a time, the nearer one second; the last is fixed.
CHAIN = {**{L[i]: (L[min(i + 2, 15)], L[i + 1]) for i in range(15)}, L[15]: (L[15],)}

STOP_CASES = {
    # 1 - x / 2 on [0, 1]: consecutive steps halve, past the horizon.
    "solve-interval": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product")),
        fx.AffineMap(0.5, 0.0),
        fx.AffineBijection(-1.0, 1.0),
        lambda p: -1.0 * p + 1.0,
        lambda x: (0.5 * x + 0.0 - 1.0) / -1.0,
        0.0, 1e-2, 1e-3, 0.5,
    ),
    # One step to the coincidence point 0.75 and a horizon of 2: a window
    # of three or four still holds the start there.
    "solve-interval-constant": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product")),
        fx.ConstantMap(0.25),
        fx.AffineBijection(-1.0, 1.0),
        lambda p: -1.0 * p + 1.0,
        lambda x: (0.25 - 1.0) / -1.0,
        0.1, 0.5, 0.5, 0.5,
    ),
    # Up the labels to the pair g swaps, where the orbit settles at L[14].
    "solve-finite-settling": lambda: _coincidence_case(
        fx.FuzzyMetric(STEPS, fx.TNorm("product")),
        fx.TableMap({L[i]: L[min(i + 1, 15)] for i in range(16)}),
        fx.PermutationBijection(_swapping(L[14], L[15])),
        _swapping(L[14], L[15]).get,
        {**{L[i]: L[i + 1] for i in range(13)}, L[13]: L[15], L[14]: L[14], L[15]: L[14]}.get,
        L[0], 0.1, 0.2, 0.5,
    ),
    # A cycle through every label: never Cauchy in a window of two or more.
    "solve-finite-cycling": lambda: _coincidence_case(
        fx.FuzzyMetric(STEPS, fx.TNorm("product")),
        fx.TableMap({L[i]: L[(i + 1) % 16] for i in range(16)}),
        fx.identity_for(STEPS),
        lambda p: p,
        {L[i]: L[(i + 1) % 16] for i in range(16)}.get,
        L[3], 0.1, 0.2, 0.5,
    ),
    # -0.681 x + 0.834 on [0, 1]: the orbit repeats a float at step 97
    # (x_97 = x_95, a 2-cycle of adjacent floats), before the horizon 138.
    "solve-interval-two-cycle": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product")),
        fx.AffineMap(-0.681, 0.834),
        fx.AffineBijection(1.0, 0.0),
        lambda p: 1.0 * p + 0.0,
        lambda x: (-0.681 * x + 0.834 - 0.0) / 1.0,
        0.0, 1e-6, 1e-6, 0.9,
    ),
    # A table that swaps the end labels, 3.75 apart: a 2-cycle from the
    # start that no window of two or more passes, so it runs to max_iter.
    "solve-finite-two-cycle": lambda: _coincidence_case(
        fx.FuzzyMetric(STEPS, fx.TNorm("product")),
        fx.TableMap(_swapping(L[0], L[15])),
        fx.identity_for(STEPS),
        lambda p: p,
        _swapping(L[0], L[15]).get,
        L[0], 0.1, 0.2, 0.5,
    ),
    # 0.5 x + 0.25 on a 2-D box: the orbit reaches the tuple (0.5, 0.5) at
    # step 56 and repeats it at step 57, before the horizon 138.
    "solve-box-fixed": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.EuclideanSpace(2, 1.0), fx.TNorm("product")),
        fx.AffineMap(0.5, 0.25),
        fx.AffineBijection(1.0, 0.0),
        lambda p: tuple([1.0 * c + 0.0 for c in p]),
        lambda p: tuple([(0.5 * c + 0.25 - 0.0) / 1.0 for c in p]),
        (1.0, -1.0), 1e-6, 1e-6, 0.9,
    ),
    # f = x and g = -x on [-1, 1]: 0.0, -0.0, -0.0, ..., which repeats a
    # float from step 2 on, not from step 1, though 0.0 == -0.0.
    "solve-signed-zero": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.IntervalSpace(-1.0, 1.0), fx.TNorm("product")),
        fx.AffineMap(1.0, 0.0),
        fx.AffineBijection(-1.0, 0.0),
        lambda p: -1.0 * p + 0.0,
        lambda x: (1.0 * x + 0.0 - 0.0) / -1.0,
        0.0, 1e-2, 1e-3, 0.5,
    ),
    # f = x - 0.0 and g = -x: 0.0, -0.0, 0.0, ..., a 2-cycle of signs that
    # == takes for a fixed point.
    "solve-signed-zero-cycle": lambda: _coincidence_case(
        fx.FuzzyMetric(fx.IntervalSpace(-1.0, 1.0), fx.TNorm("product")),
        fx.AffineMap(1.0, -0.0),
        fx.AffineBijection(-1.0, 0.0),
        lambda p: -1.0 * p + 0.0,
        lambda x: (1.0 * x + -0.0 - 0.0) / -1.0,
        0.0, 1e-2, 1e-3, 0.5,
    ),
    # Up the chain one label a step while the scales allow it, then fixed.
    "solve-set-chain": lambda: _inclusion_case(CHAIN, _swapping(L[0], L[0]), L[0], 0.5, 0.5, 0.9),
    # The same chain entered through g, which swaps the first two labels.
    "solve-set-swapped": lambda: _inclusion_case(CHAIN, _swapping(L[0], L[1]), L[0], 0.5, 0.5, 0.9),
}


@pytest.mark.parametrize("max_iter", ["1", "horizon-1", "horizon", "default"])
@pytest.mark.parametrize("window", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_rule_matches_reference_loop(case, window, max_iter):
    cfg, solve, metric, step, distance, k, residuals_pass = STOP_CASES[case]()
    n_horizon = orbit_count(linear_step(k), cfg.t0, min(cfg.epsilon, cfg.lam), 10**6)
    limit = {"1": 1, "horizon-1": n_horizon - 1, "horizon": n_horizon, "default": cfg.max_iter}[max_iter]
    cfg = replace(cfg, window=window, max_iter=limit)
    res = solve(cfg)
    trace, stopped = reference_orbit(
        step, distance, cfg.start, cfg.epsilon, cfg.lam, window, limit, n_horizon
    )
    records = fx.trace_records(metric, res.orbit, cfg.epsilon)
    # By repr, which tells -0.0 from 0.0 where == cannot.
    assert repr([(r.index, r.point, r.successive_grade) for r in records]) == repr(trace)
    assert repr(res.orbit) == repr((cfg.start,) + tuple(point for _, point, _ in trace))
    assert res.point == trace[-1][1]
    assert res.converged == (stopped and residuals_pass(res.point))
    if isinstance(res, fx.SolveResult):
        assert res.horizon_used == n_horizon
        assert res.iterations == len(trace)


def _count_steps(monkeypatch, events):
    """Append "step" to events at each step a coincidence orbit takes: a
    call of the function InverseComposite.apply_on gives the orbit."""
    apply_on = fx.InverseComposite.apply_on

    def counted_apply_on(self, space):
        step = apply_on(self, space)
        return lambda p: events.append("step") or step(p)

    monkeypatch.setattr(fx.InverseComposite, "apply_on", counted_apply_on)


@pytest.mark.parametrize("case,steps", [("solve-interval-two-cycle", 97), ("solve-finite-two-cycle", 2), ("solve-box-fixed", 57)])
def test_single_valued_orbit_stops_stepping_at_a_repeat(monkeypatch, case, steps):
    events = []
    _count_steps(monkeypatch, events)
    cfg, solve, *_ = STOP_CASES[case]()
    res = solve(cfg)
    assert len(events) == steps < res.iterations


def test_set_valued_orbit_steps_every_time(monkeypatch):
    # Its successor depends on the scale t_n, so a repeated point is no cycle.
    calls = []
    select = fx.multivalued.select_successor
    monkeypatch.setattr(fx.multivalued, "select_successor", lambda *a, **k: calls.append(a) or select(*a, **k))
    cfg, solve, *_ = STOP_CASES["solve-set-chain"]()
    res = solve(replace(cfg, lam=0.1))  # past the horizon at L[15], a fixed label
    assert res.orbit[-10:] == (L[15],) * 10
    assert len(calls) == len(res.orbit) - 1


def test_max_iter_returns_partial_trace(flagship_fm, flagship_f, flagship_g, flagship_phi):
    cfg = fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, t0=2.0, max_iter=3)
    res = fx.solve_coincidence(flagship_fm, flagship_f, flagship_g, flagship_phi, cfg)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.orbit) == 4


def _count_work(monkeypatch, space_type):
    """Events of a coincidence solve: "step" per step taken, "measure" per
    distance of ``space_type`` and "grade" per membership call (which
    measures its pair too)."""
    events = []
    membership, distance = fx.FuzzyMetric.membership, space_type.distance

    def counted_membership(self, x, y, t):
        events.append("grade")
        return membership(self, x, y, t)

    monkeypatch.setattr(fx.FuzzyMetric, "membership", counted_membership)
    monkeypatch.setattr(space_type, "distance", lambda self, x, y: events.append("measure") or distance(self, x, y))
    _count_steps(monkeypatch, events)
    return events


def test_untraced_solve_grades_only_for_the_stop_rule(monkeypatch):
    # Nothing is measured before the horizon. From there a step longer than
    # the screen's bound measures nothing, and each step within it measures
    # its newest pair once, with no membership call while that pair fails;
    # membership grades only the confirming window's pairs (one at window 2),
    # then the residuals once per time after the loop. Far from 0 the
    # bound's rounding term lets a failing step within the screen through.
    events = _count_work(monkeypatch, fx.IntervalSpace)
    lo = 2.0**20
    fm = fx.FuzzyMetric(fx.IntervalSpace(lo, lo + 1.0), fx.TNorm("product"))
    f, g, phi = fx.AffineMap(0.5, 2.0**19 + 0.5), fx.AffineBijection(-1.0, 2.0 * lo + 1.0), fx.LinearPhi(0.5)
    cfg = fx.SolverConfig(start=lo, epsilon=3e-5, lam=3e-5)
    res = fx.solve_coincidence(fm, f, g, phi, cfg)
    assert res.converged and res.iterations > res.horizon_used
    bound = fx.solver._screen(fm.g_transform(g), cfg, fx.InverseComposite(g, f))
    within = [abs(res.orbit[n] - res.orbit[n - 1]) <= bound for n in range(res.horizon_used, res.iterations)]
    assert 0 < within.count(False) and 0 < within.count(True)
    assert within == sorted(within) and cfg.epsilon * cfg.lam / (1.0 - cfg.lam) < bound
    residuals = ["grade", "measure"] * len(cfg.times())
    failing = [event for inside in within for event in ["step", "measure"][: 1 + inside]]
    confirming = ["step", "measure", "grade", "measure"]
    assert events == ["step"] * (res.horizon_used - 1) + failing + confirming + residuals

    events.clear()
    res = fx.solve_coincidence(fm, f, g, phi, replace(cfg, max_iter=res.horizon_used - 1))
    assert not res.converged
    assert events == ["step"] * res.iterations + residuals


def _walk_down_a_line():
    # f walks a 40-point line down to its fixed end.
    space = line_space(tuple(range(40)))
    labels = space.labels
    f = fx.TableMap({label: labels[max(0, i - 1)] for i, label in enumerate(labels)})
    g = fx.PermutationBijection({label: label for label in labels})
    return space, f, g, fx.SolverConfig(start=labels[-1], epsilon=1e-2, lam=1e-3)


UNSCREENED = {
    "finite": _walk_down_a_line,
    "normalized": lambda: (
        fx.IntervalSpace(2.0**20, 2.0**20 + 1.0, normalize=True),
        fx.AffineMap(0.5, 2.0**19 + 0.5),
        fx.AffineBijection(-1.0, 2.0**21 + 1.0),
        fx.SolverConfig(start=2.0**20, epsilon=3e-5, lam=3e-5),
    ),
    "box": lambda: (
        fx.EuclideanSpace(2, 1.0),
        fx.AffineMap(0.5, 0.0),
        fx.AffineBijection(-1.0, 0.0),
        fx.SolverConfig(start=(1.0, -0.5), epsilon=1e-2, lam=1e-3),
    ),
}


@pytest.mark.parametrize("case", sorted(UNSCREENED))
def test_untraced_solve_without_a_screen_measures_every_step_from_the_horizon(monkeypatch, case):
    # Finite spaces, normalized spaces and boxes have no screen: each step
    # from the horizon measures its newest pair once.
    space, f, g, cfg = UNSCREENED[case]()
    events = _count_work(monkeypatch, type(space))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    res = fx.solve_coincidence(fm, f, g, fx.LinearPhi(0.5), cfg)
    assert res.converged and res.iterations > res.horizon_used
    residuals = ["grade", "measure"] * len(cfg.times())
    failing = ["step", "measure"] * (res.iterations - res.horizon_used)
    confirming = ["step", "measure", "grade", "measure"]
    assert events == ["step"] * (res.horizon_used - 1) + failing + confirming + residuals


def test_stop_rule_calls_the_window_test_only_on_a_passing_newest_pair(monkeypatch):
    # At window 3 on a monotone orbit the newest pair passes a few steps
    # before the window does: is_cauchy_window runs on exactly those steps,
    # the last of them on the confirming window.
    windows = []
    is_cauchy_window = fx.solver.is_cauchy_window

    def counted(fm, window, epsilon, lam):
        windows.append(tuple(window))
        return is_cauchy_window(fm, window, epsilon, lam)

    monkeypatch.setattr(fx.solver, "is_cauchy_window", counted)
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    f, g, phi = fx.AffineMap(0.5, 0.25), fx.AffineBijection(1.0, 0.0), fx.LinearPhi(0.5)
    cfg = fx.SolverConfig(start=0.0, epsilon=1e-2, lam=1e-3, window=3)
    res = fx.solve_coincidence(fm, f, g, phi, cfg)
    assert res.converged
    level = 1.0 - cfg.lam
    passing = [
        tuple(res.orbit[max(0, n - 2) : n + 1])
        for n in range(max(1, res.horizon_used), res.iterations + 1)
        if cfg.epsilon / (cfg.epsilon + abs(res.orbit[n] - res.orbit[n - 1])) > level
    ]
    assert windows == passing and len(passing) > 1
    assert windows[-1] == res.orbit[-3:]


COORDS = (0.0, 0.5, 1.0, 2.0)


@st.composite
def orbit_cases(draw):
    """(metric, start, step factory) for ``solver.orbit``: x -> g^{-1}(f(x)) with a
    reflected g on an interval, on a normalized interval, on a 2-D box or
    with a finite permutation g, or the set-valued successor at shrinking
    scales under the plain metric. The factory makes a fresh step, since
    the set-valued one carries its scale."""
    kind = draw(st.sampled_from(["reflected", "normalized", "box", "permutation", "set-valued"]))
    a = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 0.9, 1.0]))
    if kind in ("reflected", "normalized"):
        lo = draw(st.sampled_from([-1.0, 0.0, 0.5]))
        hi = lo + draw(st.sampled_from([0.25, 1.0, 2.0]))
        space = fx.IntervalSpace(lo, hi, normalize=kind == "normalized")
        reflect = kind == "reflected" or draw(st.booleans())
        g = fx.AffineBijection(-1.0, lo + hi) if reflect else fx.AffineBijection(1.0, 0.0)
        centre = (lo + hi) / 2.0
        f = fx.AffineMap(a, centre - a * centre)
        start = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    elif kind == "box":
        space = fx.EuclideanSpace(2, 1.0)
        g = fx.AffineBijection(draw(st.sampled_from([-1.0, 1.0])), 0.0)
        f = fx.AffineMap(a, 0.0)
        start = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(2))
    else:
        space = line_space(COORDS)
        labels = list(space.labels)
        g = fx.PermutationBijection(dict(zip(labels, draw(st.permutations(labels)))))
        start = draw(st.sampled_from(labels))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    if kind != "set-valued":
        if kind == "permutation":
            f = fx.TableMap({label: draw(st.sampled_from(labels)) for label in labels})
        return fm.g_transform(g), start, lambda: fx.InverseComposite(g, f)
    subsets = st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)
    T = fx.SetValuedMap({label: tuple(draw(subsets)) for label in labels})
    phi = fx.LinearPhi(0.5)

    def successor_factory():
        t = 2.0

        def successor(x):
            nonlocal t
            x_next = fx.select_successor(fm, T, g, phi, u=x, y=x, t=t)
            t = phi.eval(t)
            return x_next

        return successor

    return fm, start, successor_factory


def _window_every_step(fm, cfg, n_horizon, step):
    """The stop rule stepped on, with the whole window graded at every step
    from the horizon."""
    points = [cfg.start]
    for n in range(1, cfg.max_iter + 1):
        points.append(step(points[-1]))
        if n >= n_horizon and fx.is_cauchy_window(fm, points[-cfg.window :], cfg.epsilon, cfg.lam):
            return tuple(points), True
    return tuple(points), False


def _outcome(run, *args):
    try:
        points, stopped = run(*args)
    except fx.NoAdmissibleSuccessor as exc:
        return str(exc)
    return repr(points), stopped


@seed(20070)
@settings(max_examples=300, deadline=None, database=None)
@given(
    case=orbit_cases(),
    window=st.integers(1, 4),
    n_horizon=st.integers(0, 6),
    max_iter=st.integers(1, 40),
    epsilon=st.sampled_from([0.5, 1e-1, 1e-2, 1e-3]),
    lam=st.sampled_from([0.5, 1e-1, 1e-2, 1e-3]),
)
def test_orbit_stops_where_the_window_test_at_every_step_does(case, window, n_horizon, max_iter, epsilon, lam):
    # The newest pair decides no stop of its own: the orbit, and the flag,
    # are those of grading the whole window at every step from the horizon,
    # an orbit shorter than the window included.
    fm, start, make_step = case
    cfg = fx.SolverConfig(start=start, epsilon=epsilon, lam=lam, max_iter=max_iter, window=window)
    got = _outcome(fx.solver.orbit, fm, cfg, n_horizon, make_step())
    step = make_step()
    expected = _outcome(_window_every_step, fm, cfg, n_horizon, step.apply if isinstance(step, fx.InverseComposite) else step)
    assert got == expected


def _unscreened(solve, *args):
    """``solve(*args)`` with the orbit's step-length screen off, so that every
    step from the horizon is measured."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fx.solver, "_screen", lambda fm, cfg, step: None)
        return solve(*args)


@st.composite
def screened_solves(draw):
    """(metric, f, g, cfg) for a coincidence solve on an unnormalized
    interval with ends from near 0 to +-2^40 and a width from 2^-10 to
    2^10, g the identity or the reflection, the step x -> g^{-1}(f(x)) at
    ratio q in (-1, 1) about the interval's centre, and eps = lam from 1e-12
    to 1e-1, or near ulp(M) ** 0.5, which puts the stopping distance
    eps * lam / (1 - lam) within 100 x of the float spacing at the ends, or
    lam in (0.5, 1 - 2^-53] with eps from 1e-6 to 10."""
    width = 2.0 ** draw(st.integers(-10, 10))
    magnitude = 2.0 ** draw(st.integers(-20, 39)) * draw(st.floats(1.0, 2.0))
    lo = draw(st.sampled_from([-1.0, 1.0])) * magnitude - width / 2.0
    space = fx.IntervalSpace(lo, lo + width)
    g = fx.AffineBijection(-1.0, space.lo + space.hi)
    try:
        g.validate_bijection(space)
    except fx.NotBijective:
        g = fx.AffineBijection(1.0, 0.0)
    if draw(st.booleans()):
        g = fx.AffineBijection(1.0, 0.0)
    q = draw(st.sampled_from([-1.0, 1.0])) * draw(st.one_of(st.sampled_from([0.6, 0.995, 0.9999]), st.floats(0.01, 0.999)))
    centre = lo + width / 2.0
    f = fx.AffineMap(g.a * q, g.apply(centre) - g.a * q * centre)
    try:
        f.validate(space)
    except ValueError:
        assume(False)
    kind = draw(st.sampled_from(["ulp", "small", "wide"]))
    if kind == "ulp":
        ulp = math.ulp(max(abs(space.lo), abs(space.hi)))
        epsilon = lam = min(0.1, max(1e-12, (ulp * 10.0 ** draw(st.floats(-2.0, 2.0))) ** 0.5))
    elif kind == "small":
        epsilon = lam = 10.0 ** -draw(st.floats(1.0, 12.0))
    else:
        epsilon = draw(st.one_of(st.sampled_from([0.625, 1.25]), st.floats(1e-6, 10.0)))
        lam = draw(st.one_of(st.sampled_from([0.8, 1.0 - 2.0**-53]), st.floats(0.5, 1.0 - 2.0**-53, exclude_min=True)))
    start = min(space.hi, lo + width * draw(st.floats(0.0, 1.0)))
    window, max_iter = draw(st.sampled_from([2, 3, 1])), draw(st.one_of(st.just(3000), st.integers(1, 3000)))
    cfg = fx.SolverConfig(start=start, epsilon=epsilon, lam=lam, window=window, max_iter=max_iter)
    return fx.FuzzyMetric(space, fx.TNorm("product")), f, g, cfg


@seed(20071)
@settings(max_examples=200, deadline=None, database=None)
@given(case=screened_solves(), k=st.sampled_from([0.5, 0.9]))
def test_screened_solve_equals_the_unscreened_one(case, k):
    # A step the screen skips is one whose newest pair fails: every field,
    # the orbit's floats included, is that of measuring every step.
    fm, f, g, cfg = case
    solve = fx.solve_coincidence
    assert repr(solve(fm, f, g, fx.LinearPhi(k), cfg)) == repr(_unscreened(solve, fm, f, g, fx.LinearPhi(k), cfg))


@seed(20072)
@settings(max_examples=100, deadline=None, database=None)
@given(
    epsilon=st.floats(1e-12, 10.0),
    lam=st.one_of(st.sampled_from([0.8, 1.0 - 2.0**-53]), st.floats(2e-16, 1.0 - 2.0**-53)),
    spread=st.floats(0.0, 20.0),
)
@example(epsilon=0.625, lam=0.8, spread=2.0)
@example(epsilon=1.25, lam=0.8, spread=2.0)
def test_screen_keeps_the_longest_passing_step(epsilon, lam, spread):
    # The first step from 0 is the longest float length whose newest pair
    # passes, on an interval up to 2^20 times wider: the horizon is 1, so
    # the run stops there, as when every step is measured. At lambda = 0.8
    # these epsilons round eps lam / (1 - lam) to a float that still passes,
    # and ulp(eps) is below that float's spacing.
    length = longest_passing_length(epsilon, lam)
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, length * 2.0**spread), fx.TNorm("product"))
    cfg = fx.SolverConfig(start=0.0, epsilon=epsilon, lam=lam)
    args = (fm, fx.ConstantMap(length), fx.AffineBijection(1.0, 0.0), fx.LinearPhi(min(epsilon, lam) / 4.0), cfg)
    res = fx.solve_coincidence(*args)
    assert res.iterations == 1 and res.converged
    assert repr(res) == repr(_unscreened(fx.solve_coincidence, *args))


def test_solve_validates_g_once_and_before_f(
    monkeypatch, flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
):
    checked = []
    validate = fx.AffineBijection.validate_bijection
    monkeypatch.setattr(
        fx.AffineBijection,
        "validate_bijection",
        lambda self, space: checked.append(self) or validate(self, space),
    )
    fx.solve_coincidence(flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg)
    assert checked == [flagship_g]
    bad_f, bad_g = fx.AffineMap(2.0, 0.0), fx.AffineBijection(0.0, 1.0)
    with pytest.raises(ValueError, match="outside the interval"):
        fx.solve_coincidence(flagship_fm, bad_f, flagship_g, flagship_phi, flagship_cfg)
    # With both maps bad, g's error is the one raised.
    with pytest.raises(fx.NotBijective):
        fx.solve_coincidence(flagship_fm, bad_f, bad_g, flagship_phi, flagship_cfg)


def test_determinism(flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg):
    a = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    b = fx.solve_coincidence(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
    )
    assert a == b


def test_finite_space_matches_brute_force():
    # cycle g with a constant f: the coincidence point is the label whose
    # g-image equals the constant
    space = line_space((0.0, 0.5, 1.0))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    g = fx.PermutationBijection({"0.0": "0.5", "0.5": "1.0", "1.0": "0.0"})
    f = fx.ConstantMap("0.5")
    cfg = fx.SolverConfig(start="1.0", epsilon=0.3, lam=0.3, t0=2.0)
    res = fx.solve_coincidence(fm, f, g, fx.LinearPhi(0.5), cfg)
    assert res.converged
    brute = min(
        space.labels,
        key=lambda x: space.distance(g.apply(x), f.apply(x)),
    )
    assert space.distance(
        g.apply(brute), f.apply(brute)
    ) == 0.0
    assert res.point == brute == "0.0"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, t0=0.5)
    with pytest.raises(ValueError):
        fx.SolverConfig(start=0.0, epsilon=0.0, lam=1e-3)
    with pytest.raises(ValueError):
        fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1.0)
    with pytest.raises(ValueError):
        fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, residual_times=(0.0,))


def test_start_outside_space_rejected(flagship_fm, flagship_f, flagship_g, flagship_phi):
    cfg = fx.SolverConfig(start=2.5, epsilon=1e-3, lam=1e-3)
    with pytest.raises(fx.UnknownPoint):
        fx.solve_coincidence(flagship_fm, flagship_f, flagship_g, flagship_phi, cfg)


def test_invalid_phi_rejected(flagship_fm, flagship_f, flagship_g, flagship_cfg):
    with pytest.raises(fx.PhiInvalid):
        fx.solve_coincidence(
            flagship_fm,
            flagship_f,
            flagship_g,
            fx.TablePhi(((0.0, 0.0), (1.0, 1.5))),
            flagship_cfg,
        )


# ------------------------------------------------------ uniqueness probe


def test_uniqueness_probe_flagship(
    flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
):
    report = fx.uniqueness_probe(
        flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg, [0.0, 1.0]
    )
    assert report.consistent
    assert all(report.converged)
    assert all(flag for _, _, flag in report.pairwise_uniform)
    for z in report.points:
        assert abs(z - 2.0 / 3.0) <= 1e-6
    # grades along the shrinking scales stay near 1 for agreeing points
    assert report.grade_curves[0].grade > 0.5


def test_uniqueness_probe_constant_map(flagship_fm, flagship_g):
    cfg = fx.SolverConfig(start=0.0, epsilon=0.5, lam=0.5, t0=2.0)
    report = fx.uniqueness_probe(
        flagship_fm,
        fx.ConstantMap(0.25),
        flagship_g,
        fx.LinearPhi(0.5),
        cfg,
        [0.0, 0.3, 1.0],
    )
    assert report.consistent
    assert len(set(report.points)) == 1


def test_uniqueness_probe_inconsistent_when_starved(
    flagship_fm, flagship_f, flagship_g, flagship_phi
):
    cfg = fx.SolverConfig(start=0.0, epsilon=1e-3, lam=1e-3, t0=2.0, max_iter=1)
    report = fx.uniqueness_probe(
        flagship_fm, flagship_f, flagship_g, flagship_phi, cfg, [0.0, 1.0]
    )
    assert not report.consistent
    assert not all(report.converged)


def test_uniqueness_probe_needs_two_starts(
    flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg
):
    with pytest.raises(ValueError):
        fx.uniqueness_probe(
            flagship_fm, flagship_f, flagship_g, flagship_phi, flagship_cfg, [0.0]
        )


# ---------------------------------------------------------- raise paths

NAN = float("nan")
RAISES = (
    ("max-iter-0", dict(max_iter=0), "max_iter must be >= 1"),
    ("window-0", dict(window=0), "window must be >= 1"),
    ("nan-epsilon", dict(epsilon=NAN), "epsilon must be positive"),
    ("nan-residual-time", dict(residual_times=(NAN,)), "residual times must be positive"),
    # 1 - lam rounds to 1 below 2^-53, so no grade could pass the stop test.
    ("lam-1e-17", dict(lam=1e-17), "lambda must lie strictly between 0 and 1, with 1 - lambda below 1 in floats"),
    ("lam-2^-54", dict(lam=2.0**-54), "lambda must lie strictly between 0 and 1, with 1 - lambda below 1 in floats"),
)


@pytest.mark.parametrize("fields, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_solver_config_raises(fields, message):
    raises_exactly(lambda: fx.SolverConfig(**{"start": 0.0, "epsilon": 0.1, "lam": 0.1, **fields}), ValueError, message)
