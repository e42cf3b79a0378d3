from fractions import Fraction

import pytest

import fuzzfix as fx
from conftest import line_space, raises_exactly
from fuzzfix.phi import pair_passes
from oracles import dense_grid, exhaustive_setvalued, inclusion_points, reference_orbit, relabeled_distance


@pytest.fixture
def flagship_setting(multivalued_space, multivalued_T):
    fm = fx.FuzzyMetric(multivalued_space, fx.TNorm("product"))
    return fm, multivalued_T, fx.identity_for(multivalued_space), fx.InducedPhi(0.5, 1.0)


# ----------------------------------------------------------- SetValuedMap


def test_setvalued_map_validation(multivalued_space):
    with pytest.raises(ValueError):
        fx.SetValuedMap({})
    with pytest.raises(ValueError):
        fx.SetValuedMap({"0": ()})
    T = fx.SetValuedMap({"0": ("0",), "1": ("0", "0.1")})
    fx.validate_setvalued(multivalued_space, T)
    with pytest.raises(ValueError):
        fx.validate_setvalued(multivalued_space, fx.SetValuedMap({"zz": ("0",)}))
    with pytest.raises(fx.UnknownPoint):
        T.image("0.1")


# ------------------------------------------------------- contraction check


def test_flagship_setvalued_contraction_passes(flagship_setting):
    fm, T, g, phi = flagship_setting
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    assert report.passed
    assert report.checked_pairs == 9


def test_full_image_passes_any_modulus(multivalued_space):
    fm = fx.FuzzyMetric(multivalued_space, fx.TNorm("product"))
    everything = tuple(multivalued_space.labels)
    T = fx.SetValuedMap({l: everything for l in multivalued_space.labels})
    report = fx.check_setvalued_contraction(
        fm, T, fx.identity_for(multivalued_space), fx.LinearPhi(0.9)
    )
    assert report.passed


def test_unit_spacing_counterexample():
    # three collinear points one apart; sending u=0 to distance 2 breaks
    # the halving modulus at the pair (1, 2)
    space = line_space((0.0, 1.0, 2.0))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    T = fx.SetValuedMap({"1.0": ("0.0", "2.0"), "2.0": ("2.0",)})
    report = fx.check_setvalued_contraction(
        fm, T, fx.identity_for(space), fx.LinearPhi(0.5)
    )
    assert not report.passed
    assert any(
        ce.x == "1.0" and ce.y == "2.0" and ce.u == "0.0"
        for ce in report.counterexamples
    )


def test_setvalued_counterexamples_replay():
    space = line_space((0.0, 1.0, 2.0))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    T = fx.SetValuedMap({"1.0": ("0.0", "2.0"), "2.0": ("2.0",)})
    g = fx.identity_for(space)
    phi = fx.LinearPhi(0.5)
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    for ce in report.counterexamples:
        gx, gy = g.apply(ce.x), g.apply(ce.y)
        assert fm.membership(gx, gy, ce.t) == ce.antecedent
        assert ce.antecedent > 1.0 - ce.t
        scaled = phi.eval(ce.t)
        best = max(fm.membership(ce.u, v, scaled) for v in T.image(gy))
        assert best == ce.consequent
        assert not best > 1.0 - scaled


def test_setvalued_matches_exhaustive_oracle(flagship_setting):
    fm, T, g, phi = flagship_setting
    verdict = fx.check_setvalued_contraction(fm, T, g, phi).passed
    oracle, _ = exhaustive_setvalued(fm.space, T, g, phi, dense_grid(10000))
    assert verdict == oracle is True

    space = line_space((0.0, 1.0, 2.0))
    fm2 = fx.FuzzyMetric(space, fx.TNorm("product"))
    T2 = fx.SetValuedMap({"1.0": ("0.0", "2.0"), "2.0": ("2.0",)})
    g2 = fx.identity_for(space)
    phi2 = fx.LinearPhi(0.5)
    verdict2 = fx.check_setvalued_contraction(fm2, T2, g2, phi2).passed
    oracle2, _ = exhaustive_setvalued(space, T2, g2, phi2, dense_grid(10000))
    assert verdict2 == oracle2 is False


@pytest.mark.parametrize(
    "phi", [fx.InducedPhi(0.5, 1.0), fx.TablePhi(((0.0, 0.0), (0.5, 0.0), (0.75, 0.5)))], ids=["induced", "table"]
)
def test_coincident_finite_rows_share_one_exact_verdict(monkeypatch, multivalued_space, multivalued_T, phi):
    # The rows (x, x, u) are coincident: u lies in T(x) itself. There are
    # four, as T(1) holds two points. The check decides each distinct pair
    # of table distances by at most one exact call, the coincident rows by
    # one, and each row's verdict is the per-row rule's on the squares of
    # its table floats.
    space, T = multivalued_space, multivalued_T
    fm, g = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space)
    rows = [(x, y, u) for x in space.labels for y in space.labels for u in T.image(x)]

    def table(p, q):
        return space.dist[space.index(p)][space.index(q)]

    def squares(x, y, u):
        return Fraction(table(x, y)) ** 2, min(Fraction(table(u, v)) ** 2 for v in T.image(y))

    coincident = {row for row in rows if squares(*row) == (0, 0)}
    assert len(coincident) == 4
    calls = []
    monkeypatch.setattr(fx.contraction, "pair_passes", lambda *args: calls.append(args[1:3]) or pair_passes(*args))
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    assert calls.count((0, 0)) == 1
    assert len(calls) == len(set(calls)) and set(calls) <= {squares(*row) for row in rows}
    failing = [(c.x, c.y, c.u) for c in report.counterexamples]
    assert failing == [row for row in rows if not pair_passes(phi, *squares(*row), False)]
    # A table is 0 right of 0, so it fails every coincident row; induced passes every row.
    assert coincident <= set(failing) if isinstance(phi, fx.TablePhi) else not failing


def test_finite_counterexamples_come_in_label_order():
    # Image lists out of label order that repeat a point: counterexamples
    # come in label order of (x, y, u), a repeated row as often as it was
    # scanned, as ranking the failing rows by label index keeps them.
    space = line_space((0.0, 1.0, 2.0, 3.0))
    fm, g, phi = fx.FuzzyMetric(space, fx.TNorm("product")), fx.identity_for(space), fx.LinearPhi(0.5)
    T = fx.SetValuedMap(
        {"0.0": ("3.0", "0.0", "3.0"), "1.0": ("2.0", "0.0"), "2.0": ("3.0", "1.0", "1.0"), "3.0": ("0.0",)}
    )

    def square(p, q):
        return Fraction(space.dist[space.index(p)][space.index(q)]) ** 2

    def fails(x, y, u):
        return not pair_passes(phi, square(x, y), min(square(u, v) for v in T.image(y)), False)

    pairs = [(x, y) for x in space.labels for y in space.labels]
    expected = sorted(
        [(x, y, u) for x, y in pairs for u in T.image(x) if fails(x, y, u)],
        key=lambda row: tuple(map(space.index, row)),
    )
    report = fx.check_setvalued_contraction(fm, T, g, phi)
    failing = [(c.x, c.y, c.u) for c in report.counterexamples]
    assert 1 < len(set(failing)) < len(failing) == len(expected)
    assert failing == expected


def test_continuum_check_takes_dom_T_squared(unit_interval):
    # A continuum check takes every ordered pair of dom T, as a finite one
    # does, with no plan given; a g other than the identity is refused, as
    # g^-1(p) need not be a float that g maps onto p.
    fm = fx.FuzzyMetric(unit_interval, fx.TNorm("product"))
    T = fx.SetValuedMap({0.0: (0.0,), 1.0: (0.0,)})
    for phi in (fx.LinearPhi(0.5), fx.InducedPhi(0.5, 1.0)):
        report = fx.check_setvalued_contraction(fm, T, fx.identity_for(unit_interval), phi)
        assert (report.passed, report.checked_pairs) == (True, 4)
        raises_exactly(
            lambda: fx.check_setvalued_contraction(fm, T, fx.AffineBijection(-1.0, 1.0), phi),
            ValueError,
            "a set-valued check on a continuum space takes the identity g",
        )


# -------------------------------------------------------- select_successor


def test_select_successor_prefers_self(flagship_setting):
    fm, T, g, phi = flagship_setting
    # u = "0" is in T(g("1")), so it is its own best successor
    v = fx.select_successor(fm, T, g, phi, u="0", y="1", t=1.0)
    assert v == "0"


def test_select_successor_tie_breaks_canonically(multivalued_space):
    fm = fx.FuzzyMetric(multivalued_space, fx.TNorm("product"))
    # both candidates at distance 0.1 from "0"... construct equidistant:
    # image {"0", "0.1"} seen from u="0.1": d=0.1 vs d=0 -> prefers itself;
    # from u="1": d(1, 0)=1, d(1, 0.1)=0.9 -> prefers "0.1"
    T = fx.SetValuedMap({"1": ("0", "0.1")})
    g = fx.identity_for(multivalued_space)
    phi = fx.InducedPhi(0.5, 1.0)
    assert fx.select_successor(fm, T, g, phi, u="1", y="1", t=2.0) == "0.1"


def test_select_successor_raises_when_inadmissible():
    space = line_space((0.0, 1.0, 2.0))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    T = fx.SetValuedMap({"0.0": ("2.0",)})
    g = fx.identity_for(space)
    # at a tiny scale, the only candidate sits far away
    with pytest.raises(fx.NoAdmissibleSuccessor):
        fx.select_successor(fm, T, g, fx.LinearPhi(0.5), u="0.0", y="0.0", t=0.01)


# ---------------------------------------------------------- solve_inclusion


def test_flagship_inclusion_solve(flagship_setting):
    fm, T, g, phi = flagship_setting
    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_inclusion(fm, T, g, phi, cfg)
    assert res.converged
    assert res.point == "0"
    assert res.in_image is True
    assert res.in_image_of_carried is True
    assert res.orbit[0] == "1"
    # brute-force inclusion points contain the answer
    assert res.point in inclusion_points(fm.space, T, g)


def test_orbit_steps_stay_in_images(flagship_setting):
    fm, T, g, phi = flagship_setting
    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_inclusion(fm, T, g, phi, cfg)
    space = fm.space
    for prev, cur in zip(res.orbit, res.orbit[1:]):
        assert cur in T.image(g.apply(prev))


def test_orbit_chain_inequality(flagship_setting):
    fm, T, g, phi = flagship_setting
    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_inclusion(fm, T, g, phi, cfg)
    for n in range(1, len(res.orbit)):
        scale = fx.iterate(phi, cfg.t0, n - 1)
        grade = fm.membership(res.orbit[n], res.orbit[n - 1], scale)
        assert grade > 1.0 - scale


def test_orbit_trace_records_each_step(flagship_setting):
    fm, T, g, phi = flagship_setting
    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    res = fx.solve_inclusion(fm, T, g, phi, cfg)
    space = fm.space
    distance = relabeled_distance(space, lambda p: p)

    def nearest_image(x):
        # The image point of g(x) nearest x, ties to the earlier label.
        images = sorted(T.image(g.apply(x)), key=space.labels.index)
        return min(images, key=lambda v: distance(x, v))

    n_horizon = fx.horizon(phi, cfg.t0, cfg.epsilon, cfg.lam)
    trace, stopped = reference_orbit(
        nearest_image, distance, cfg.start, cfg.epsilon, cfg.lam, cfg.window, cfg.max_iter, n_horizon
    )
    records = fx.trace_records(fm, res.orbit, cfg.epsilon)
    assert [(r.index, r.point, r.successive_grade) for r in records] == trace
    assert res.converged == stopped


def test_identity_inclusion_returns_immediately(multivalued_space):
    fm = fx.FuzzyMetric(multivalued_space, fx.TNorm("product"))
    T = fx.SetValuedMap({l: (l,) for l in multivalued_space.labels})
    cfg = fx.SolverConfig(start="0.1", epsilon=0.5, lam=0.5, t0=2.0)
    res = fx.solve_inclusion(
        fm, T, fx.identity_for(multivalued_space), fx.LinearPhi(0.5), cfg
    )
    assert res.converged
    assert res.point == "0.1"
    assert res.in_image is True


def test_two_point_full_map(flagship_setting):
    space = line_space((0.0, 1.0))
    fm = fx.FuzzyMetric(space, fx.TNorm("product"))
    T = fx.SetValuedMap({"0.0": ("0.0", "1.0"), "1.0": ("0.0", "1.0")})
    cfg = fx.SolverConfig(start="1.0", epsilon=0.3, lam=0.3, t0=2.0)
    res = fx.solve_inclusion(
        fm, T, fx.identity_for(space), fx.InducedPhi(0.5, 1.0), cfg
    )
    assert res.converged
    assert res.point in ("0.0", "1.0")
    assert res.in_image is True


def test_inclusion_requires_demicompact_assertion(unit_interval):
    fm = fx.FuzzyMetric(unit_interval, fx.TNorm("product"))
    T = fx.SetValuedMap({0.5: (0.5,)})
    cfg = fx.SolverConfig(start=0.5, epsilon=0.3, lam=0.3, t0=2.0)
    with pytest.raises(fx.NotDemicompact):
        fx.solve_inclusion(fm, T, fx.identity_for(unit_interval), fx.LinearPhi(0.5), cfg)
    res = fx.solve_inclusion(
        fm,
        T,
        fx.identity_for(unit_interval),
        fx.LinearPhi(0.5),
        cfg,
        assume_demicompact=True,
    )
    assert res.converged


def test_inclusion_determinism(flagship_setting):
    fm, T, g, phi = flagship_setting
    cfg = fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0)
    assert fx.solve_inclusion(fm, T, g, phi, cfg) == fx.solve_inclusion(
        fm, T, g, phi, cfg
    )


# ------------------------------------------------------------ demicompact


def test_check_demicompact_finite(flagship_setting, unit_interval):
    # Only a finite space is taken as demicompact without the assertion.
    fm, T, g, phi = flagship_setting
    fx.solve_inclusion(fm, T, g, phi, fx.SolverConfig(start="1", epsilon=1e-3, lam=1e-3, t0=2.0))
    for space, p in ((unit_interval, 0.5), (fx.EuclideanSpace(2), (0.5, 0.5))):
        fm = fx.FuzzyMetric(space, fx.TNorm("product"))
        cfg = fx.SolverConfig(start=p, epsilon=0.3, lam=0.3, t0=2.0)
        with pytest.raises(fx.NotDemicompact):
            fx.solve_inclusion(fm, fx.SetValuedMap({p: (p,)}), fx.identity_for(space), fx.LinearPhi(0.5), cfg)


def test_demicompactness_survives_transform(multivalued_space):
    # relabeling by a permutation keeps the underlying space, hence the
    # finite-space guarantees
    fm = fx.FuzzyMetric(multivalued_space, fx.TNorm("product"))
    perm = fx.PermutationBijection({"0": "0.1", "0.1": "1", "1": "0"})
    fm_g = fm.g_transform(perm)
    assert fm_g.space is multivalued_space
    assert isinstance(fm_g.space, fx.FiniteSpace)


# ----------------------------------------------------- delta decomposition


@pytest.mark.parametrize("norm_name", ("product", "minimum", "lukasiewicz"))
@pytest.mark.parametrize("lam", (0.05, 0.1, 0.2))
def test_delta_chain_triple_fold(norm_name, lam):
    # the closure argument splits an entourage into three legs joined by
    # the norm; the depth-3 margin certifies the combined bound
    norm = fx.TNorm(norm_name)
    delta2 = fx.delta_for_lambda(norm, lam, depth=3)
    v = 1.0 - delta2
    assert norm.combine(v, norm.combine(v, v)) > 1.0 - lam


@pytest.mark.parametrize("norm_name", ("product", "minimum", "lukasiewicz"))
def test_delta_chain_two_stage_construction(norm_name):
    # two nested depth-2 margins also certify the triple fold, matching
    # the staged derivation delta, delta1, delta2 = min(delta, delta1)
    norm = fx.TNorm(norm_name)
    lam = 0.2
    delta = fx.delta_for_lambda(norm, lam, depth=2)
    delta1 = fx.delta_for_lambda(norm, delta, depth=2)
    delta2 = min(delta, delta1)
    v = 1.0 - delta2
    assert norm.combine(v, norm.combine(v, v)) >= 1.0 - lam


# ---------------------------------------------------------- raise paths

NAN = float("nan")
LINE = line_space((0.0, 1.0))
LINE_T = fx.SetValuedMap({"0.0": ("0.0",), "1.0": ("0.0",)})


def successor_at(t):
    fm = fx.FuzzyMetric(LINE, fx.TNorm("product"))
    return fx.select_successor(fm, LINE_T, fx.identity_for(LINE), fx.InducedPhi(0.5, 1.0), "0.0", "1.0", t)


RAISES = (
    (
        "image-outside",
        lambda: fx.validate_setvalued(LINE, fx.SetValuedMap({"0.0": ("0.0", "2.0")})),
        ValueError,
        "image point '2.0' lies outside the space",
    ),
    ("successor-t-0", lambda: successor_at(0.0), ValueError, "t must be positive"),
    ("successor-nan-t", lambda: successor_at(NAN), ValueError, "t must be positive"),
)


@pytest.mark.parametrize("call, error, message", [row[1:] for row in RAISES], ids=[row[0] for row in RAISES])
def test_invalid_arguments_raise(call, error, message):
    raises_exactly(call, error, message)
