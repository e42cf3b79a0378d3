"""Independent checks for every benchmark job.

Nothing here imports fuzzfix. Each check reads the job's JSON config and
the report the CLI rendered, and recomputes what the mathematics says
from the standard fuzzy metric M(x, y, t) = t / (t + d(x, y)) of George
and Veeramani (1994):

- crossing times from the closed form tau(d) = (sqrt(d^2 + 4d) - d) / 2;
- horizons from ceil(log(target / t0) / log k) (linear moduli) and
  ceil(1 / target - 1 / t0) (rational), and by iterating the modulus's
  definition for induced and table moduli;
- coincidence points from (b_f - b_g) / (a_g - a_f) with the Banach
  a-priori error bound, or by brute force on finite spaces;
- contraction verdicts from the closed forms on continua, and from a
  dense time grid of the raw implication on finite spaces;
- counterexamples by replaying them through the raw formula.

A failed check raises CheckFailed with the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional

from workloads import Job, Workload, tau

REL = 1e-12
GRID_POINTS = 10000
GRID_T_MAX = 2.0
MAX_COUNTEREXAMPLES = 64

TNORM_LAWS = ("commutativity", "associativity", "unit", "monotonicity", "sup_diagonal")
FM_LAWS = ("FM1", "FM2", "FM3", "FM4", "FM5", "FM6", "monotone_in_t")
PHI_LAWS = ("nondecreasing", "below_identity", "iterates_vanish")


class CheckFailed(Exception):
    """A job's output disagrees with its independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _reject_constant(token: str):
    raise CheckFailed(f"stdout holds the non-JSON token {token}")


def strict_json(text: str) -> dict:
    """Parse as RFC 8259 JSON: NaN and Infinity tokens are refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


# --------------------------------------------------------------- modulus


def phi_eval(phi: dict, t: float) -> float:
    """The modulus from its definition (tables are right-continuous)."""
    kind = phi["kind"]
    if kind == "linear":
        return phi["k"] * t
    if kind == "rational":
        return t / (1.0 + t)
    if kind == "induced":
        k, cap = phi["k"], phi["cap"]
        tau_cap = tau(cap)
        if t == 0.0:
            return 0.0
        if t <= tau_cap:
            # t = tau(d) for d = t^2 / (1 - t); the modulus sends it to tau(k d).
            return tau(k * t * t / (1.0 - t))
        return tau(k * cap) + k * (t - tau_cap)
    value = 0.0
    for bt, bv in phi["points"]:
        if bt <= t:
            value = bv
    return value


def table_admissible(points) -> bool:
    """Exact admissibility of a step modulus from its breakpoints.

    Values must not decrease (the modulus is 0 before the first
    breakpoint) and each value must lie below its breakpoint time, or be
    0 at time 0. Then every orbit reaches 0 within len(points) + 1 steps.
    """
    prev = 0.0
    for t, v in points:
        if v < prev:
            return False
        if not (v < t or (t == 0.0 and v == 0.0)):
            return False
        prev = v
    return True


def expected_horizon(phi: dict, t0: float, target: float) -> int:
    if t0 <= target:
        return 0
    kind = phi["kind"]
    if kind == "linear":
        return math.ceil(math.log(target / t0) / math.log(phi["k"]))
    if kind == "rational":
        return math.ceil(1.0 / target - 1.0 / t0)
    n, t = 0, t0
    while t > target:
        t = phi_eval(phi, t)
        n += 1
        _require(n <= 10 ** 7, "oracle horizon did not terminate")
    return n


# ----------------------------------------------------------------- spaces


class Geometry:
    """Distances and maps of one config, computed from the raw document."""

    def __init__(self, doc: dict):
        space = doc["space"]
        self.kind = space["kind"]
        self.doc = doc
        if self.kind == "finite":
            self.index = {p: i for i, p in enumerate(space["points"])}
            self.table = space["dist"]
        self.g = doc.get("g")

    def dist(self, x, y) -> float:
        if self.kind == "finite":
            return self.table[self.index[x]][self.index[y]]
        if self.kind == "interval":
            return abs(x - y)
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))

    def point(self, raw):
        return tuple(raw) if isinstance(raw, list) else raw

    def apply(self, m: Optional[dict], p):
        if m is None:
            return p
        kind = m["kind"]
        if kind == "affine":
            if isinstance(p, tuple):
                return tuple(m["a"] * c + m["b"] for c in p)
            return m["a"] * p + m["b"]
        if kind == "constant":
            return self.point(m["c"])
        return m["map"][p]

    def gx(self, p):
        return self.apply(self.g, p)

    def fx(self, p):
        return self.apply(self.doc.get("f"), p)


def _membership(t: float, d: float) -> float:
    return t / (t + d) if t > 0.0 else 0.0


# ----------------------------------------------------------------- checks


class Oracle:
    """Checks reports of one workload; caches per-config reference values."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.digests = [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in workload.texts]
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _horizon(self, job: Job, doc: dict) -> int:
        solver = doc["solver"]
        target = min(solver["epsilon"], solver["lambda"])
        return self._memo(("horizon", job.config), lambda: expected_horizon(doc["phi"], solver.get("t0", 2.0), target))

    def check(self, job: Job, text: str, code: int) -> None:
        """Raise CheckFailed unless ``text`` and ``code`` are right for ``job``."""
        doc = self.workload.docs[job.config]
        report = strict_json(text)
        _require(report.get("command") == job.command, "command echoed wrongly")
        _require(report.get("config_digest") == self.digests[job.config], "config digest differs")
        verification = doc.get("verification", {})
        _require(
            report.get("seed") == job.overrides.get("seed", verification.get("seed", 0)),
            "seed echoed wrongly",
        )
        samples = job.overrides.get("samples", verification.get("samples", 10000))
        _require(report.get("samples") == samples, "samples echoed wrongly")
        _require("hypothesis_failure" not in report["verdicts"], "unexpected hypothesis failure")
        handler = getattr(self, "_" + job.command.replace("-", "_"))
        handler(job, doc, report, code, samples)

    # -- check-axioms

    def _check_axioms(self, job, doc, report, code, samples):
        grid = doc.get("verification", {}).get("grid", 11)
        ascending = grid * (grid + 1) // 2
        tnorm_checks = (grid * grid, grid ** 3, grid, ascending * ascending, 40)
        _laws(report["verdicts"]["tnorm"], TNORM_LAWS, tnorm_checks)
        _laws(report["verdicts"]["fm_axioms"], FM_LAWS, (samples,) * len(FM_LAWS))
        _require(code == 0, "check-axioms must exit 0")

    # -- check-phi

    def _check_phi(self, job, doc, report, code, samples):
        phi = doc["phi"]
        expected = table_admissible(phi["points"]) if phi["kind"] == "table" else True
        verdict = report["verdicts"]["phi_class"]
        _require([law["name"] for law in verdict["laws"]] == list(PHI_LAWS), "phi laws differ")
        _require(verdict["passed"] is expected, f"check-phi verdict {verdict['passed']} != exact {expected}")
        _require(code == (0 if expected else 1), "check-phi exit code")

    # -- induce-phi

    def _induce_phi(self, job, doc, report, code, samples):
        phi = doc["phi"]
        k, cap = phi["k"], phi["cap"]
        res = report["result"]
        tau_cap = tau(cap)
        _require(_close(res["tau_cap"], tau_cap) and _close(res["anchor"], tau(k * cap)), "tau_cap or anchor")
        curve = res["curve"]
        _require(len(curve) == 8, "induce-phi curve length")
        for i, (t, value) in enumerate(curve, start=1):
            _require(_close(t, 2.0 * tau_cap * i / 8), "curve time")
            if t <= tau_cap:
                # conjugacy: phi(tau(d)) == tau(k d) with d = tau^{-1}(t)
                expected = tau(k * t * t / (1.0 - t))
            else:
                expected = tau(k * cap) + k * (t - tau_cap)
            _require(_close(value, expected, 1e-11), f"conjugacy fails at t={t}")
        _require(report["verdicts"]["phi_class"]["passed"] is True and code == 0, "induced modulus must pass")

    # -- threshold

    def _threshold(self, job, doc, report, code, samples):
        geo = Geometry(doc)
        res = report["result"]
        x, y = geo.point(res["x"]), geo.point(res["y"])
        _require((x, y) == (doc["query"]["x"], doc["query"]["y"]), "query echoed wrongly")
        d = geo.dist(x, y)
        closed = tau(d)
        _require(abs(res["tau"] - closed) <= 2e-12, f"tau {res['tau']!r} != closed form {closed!r}")
        _require(_close(res["membership_at_tau"], _membership(res["tau"], d)), "membership_at_tau")
        _require(code == 0, "threshold exit code")

    # -- check-contraction

    def _check_contraction(self, job, doc, report, code, samples):
        geo = Geometry(doc)
        verdict = report["verdicts"]["contraction"]
        phi = doc["phi"]
        if geo.kind == "finite":
            n = len(geo.index)
            _require(verdict["checked_pairs"] == min(n * n, samples), "finite pair plan is not exhaustive")
            expected = self._memo(("grid", job.config), lambda: _finite_grid_verdict(geo, phi))
        else:
            _require(verdict["checked_pairs"] == samples, "checked_pairs != samples")
            a_g = abs(geo.g["a"]) if geo.g else 1.0
            ratio = abs(doc["f"]["a"]) / a_g
            diameter = job.expect["diameter"]
            expected = self._memo(("closed", job.config), lambda: _continuum_verdict(phi, ratio, diameter))
        _require(expected is job.expect["verdict"], "workload built an instance against its own design")
        _require(verdict["passed"] is expected, f"verdict {verdict['passed']} != mathematics {expected}")
        _require(code == (0 if expected else 1), "check-contraction exit code")
        ces = report["counterexamples"]
        if expected:
            _require(ces == [], "a passing verdict lists counterexamples")
            return
        _require(1 <= len(ces) <= MAX_COUNTEREXAMPLES, "counterexample count")
        for ce in ces:
            x, y = geo.point(ce["x"]), geo.point(ce["y"])
            t = ce["t"]
            d_g = geo.dist(geo.gx(x), geo.gx(y))
            d_f = geo.dist(geo.fx(x), geo.fx(y))
            antecedent = _membership(t, d_g)
            s = phi_eval(phi, t)
            consequent = _membership(s, d_f)
            _require(_close(antecedent, ce["antecedent"]), "counterexample antecedent does not replay")
            _require(_close(consequent, ce["consequent"]), "counterexample consequent does not replay")
            _require(antecedent > 1.0 - t - REL, "counterexample antecedent does not hold")
            _require(not consequent > 1.0 - s + REL, "counterexample consequent holds")

    # -- solve

    def _solve(self, job, doc, report, code, samples):
        geo = Geometry(doc)
        solver = doc["solver"]
        eps, lam = solver["epsilon"], solver["lambda"]
        max_iter = job.overrides.get("max_iter", solver.get("max_iter", 10000))
        res = report["result"]
        horizon = self._horizon(job, doc)
        _require(abs(res["horizon_used"] - horizon) <= 1, f"horizon {res['horizon_used']} != {horizon}")
        p = geo.point(res["point"])
        d = geo.dist(geo.gx(p), geo.fx(p))
        times = (eps, 0.1, 1.0)
        _require([t for t, _ in res["residuals"]] == list(times), "residual times")
        for (t, grade) in res["residuals"]:
            _require(_close(grade, _membership(t, d)), f"residual at t={t} does not replay")
        iterations = res["iterations"]
        _require(1 <= iterations <= max_iter, "iteration count out of range")
        grades = [_membership(t, d) for t in times if t >= eps]
        if res["converged"]:
            _require(code == 0, "converged run must exit 0")
            _require(iterations >= res["horizon_used"], "converged before the horizon")
            _require(all(g >= 1.0 - lam - REL for g in grades), "converged with failing residuals")
            if geo.kind == "finite":
                f_map = doc["f"]["map"]
                g_map = doc["g"]["map"]
                _require(g_map[p] == f_map[p], f"{p!r} is not a coincidence point")
            else:
                _require(abs(p - _coincidence(doc)) <= _apriori_bound(doc, iterations), "point outside the a-priori bound")
        else:
            _require(code == 1, "non-converged run must exit 1")
            _require(
                iterations == max_iter or not all(g >= 1.0 - lam + REL for g in grades),
                "stopped with passing residuals but reported not converged",
            )

    # -- solve-set

    def _solve_set(self, job, doc, report, code, samples):
        geo = Geometry(doc)
        solver = doc["solver"]
        eps, lam = solver["epsilon"], solver["lambda"]
        T = doc["T"]["map"]
        g_map = doc["g"]["map"]
        res = report["result"]
        horizon = self._horizon(job, doc)
        inclusion = self._memo(("inclusion", job.config), lambda: {x for x in g_map if x in T.get(g_map[x], ())})
        _require(res["converged"] is True and code == 0, "solve-set did not converge")
        p = res["point"]
        _require(p in inclusion, f"{p!r} is not in {{x : x in T(gx)}}")
        _require(res["orbit_length"] >= horizon, "orbit shorter than the horizon")
        _require(res["in_image"] is (p in T.get(p, ())), "in_image")
        image = T[g_map[p]]
        nearest = min(geo.dist(v, p) for v in image)
        levels = ((eps, lam), (eps / 4.0, lam / 4.0), (eps / 16.0, lam / 16.0))
        _require(len(res["member_check"]) == 3, "member_check levels")
        for entry, (e, l) in zip(res["member_check"], levels):
            _require(_close(entry["epsilon"], e) and _close(entry["lambda"], l), "member_check level")
            _require(entry["witness"] in image and geo.dist(entry["witness"], p) == nearest, "member_check witness")
            grade = _membership(e, nearest)
            _require(_close(entry["grade"], grade), "member_check grade")
            _require(entry["passed"] is (grade > 1.0 - l), "member_check verdict")
        _require(res["in_image_of_carried"] is all(e["passed"] for e in res["member_check"]), "in_image_of_carried")


def _laws(verdict: dict, names, checks) -> None:
    laws = verdict["laws"]
    _require([law["name"] for law in laws] == list(names), "law names differ")
    for law, count in zip(laws, checks):
        _require(law["passed"] is True and law["witnesses"] == [], f"law {law['name']} failed")
        _require(law["checks"] == count, f"law {law['name']} made {law['checks']} checks, expected {count}")
    _require(verdict["passed"] is True, "report not passed")


def _coincidence(doc: dict) -> float:
    f = doc["f"]
    g = doc.get("g", {"a": 1.0, "b": 0.0})
    return (f["b"] - g["b"]) / (g["a"] - f["a"])


def _apriori_bound(doc: dict, n: int) -> float:
    """Banach a-priori bound q^n / (1 - q) |x1 - x0| for x -> g^{-1}(f(x)),
    plus the rounding floor of the iteration."""
    f = doc["f"]
    g = doc.get("g", {"a": 1.0, "b": 0.0})
    q = abs(f["a"] / g["a"])
    x0 = doc["solver"]["start"]
    x1 = (f["a"] * x0 + f["b"] - g["b"]) / g["a"]
    z = _coincidence(doc)
    floor = 256.0 * 2.0 ** -52 * (1.0 + abs(z)) / (1.0 - q)
    return q ** n / (1.0 - q) * abs(x1 - x0) + floor


def _continuum_verdict(phi: dict, ratio: float, diameter: float) -> bool:
    """Whether phi(tau(d)+) > tau(ratio d) for all 0 < d <= diameter.

    For the standard metric and an affine f with |a_f| / |a_g| = ratio,
    this is the contraction implication over every pair of the space.
    """
    for i in range(2001):
        d = diameter * 10.0 ** (-12.0 * i / 2000)
        if not phi_eval(phi, tau(d)) > tau(ratio * d):
            return False
    return True


def _finite_grid_verdict(geo: Geometry, phi: dict) -> bool:
    """The raw implication on a dense time grid over all ordered pairs.

    Both sides are monotone in t (membership rises with t while 1 - t
    falls, and phi does not decrease), so the earliest grid time at
    which the antecedent holds is the one where the consequent is
    hardest; it is found by bisection on the raw formula.
    """
    grid = [GRID_T_MAX * k / GRID_POINTS for k in range(1, GRID_POINTS + 1)]
    scaled = [phi_eval(phi, t) for t in grid]
    points = list(geo.index)
    seen = set()
    for x in points:
        for y in points:
            pair = (geo.dist(geo.gx(x), geo.gx(y)), geo.dist(geo.fx(x), geo.fx(y)))
            if pair in seen:
                continue
            seen.add(pair)
            d_g, d_f = pair
            lo, hi = 0, len(grid)
            while lo < hi:
                mid = (lo + hi) // 2
                t = grid[mid]
                if _membership(t, d_g) > 1.0 - t:
                    hi = mid
                else:
                    lo = mid + 1
            if lo == len(grid):
                continue
            s = scaled[lo]
            if not _membership(s, d_f) > 1.0 - s:
                return False
    return True
