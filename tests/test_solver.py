from dataclasses import replace

import pytest

import fuzzfix as fx
from conftest import line_space
from oracles import linear_step, orbit_count, reference_orbit, relabeled_distance


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


def test_untraced_solve_grades_only_for_the_stop_rule(monkeypatch):
    # No grade before the horizon, then one per step at window 2 (the
    # window's one pair); the residuals grade once per time after the loop.
    events = []
    membership = fx.FuzzyMetric.membership

    def counted_membership(self, x, y, t):
        events.append("grade")
        return membership(self, x, y, t)

    monkeypatch.setattr(fx.FuzzyMetric, "membership", counted_membership)
    _count_steps(monkeypatch, events)
    fm = fx.FuzzyMetric(fx.IntervalSpace(0.0, 1.0), fx.TNorm("product"))
    f, g, phi = fx.AffineMap(0.5, 0.0), fx.AffineBijection(-1.0, 1.0), fx.LinearPhi(0.5)
    cfg = fx.SolverConfig(start=0.0, epsilon=1e-2, lam=1e-3)
    res = fx.solve_coincidence(fm, f, g, phi, cfg)
    assert res.converged and res.iterations > res.horizon_used
    residuals = ["grade"] * len(cfg.times())
    stop_rule = ["step", "grade"] * (res.iterations - res.horizon_used + 1)
    assert events == ["step"] * (res.horizon_used - 1) + stop_rule + residuals

    events.clear()
    res = fx.solve_coincidence(fm, f, g, phi, replace(cfg, max_iter=res.horizon_used - 1))
    assert not res.converged
    assert events == ["step"] * res.iterations + residuals


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
