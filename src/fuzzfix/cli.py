"""Batch front door: JSON config in, deterministic report out.

Exit codes: 0 for pass/converged, 1 for a verified hypothesis failure or
a non-converged run (the report still prints), 2 for usage or config
errors. Reports are byte-stable for a fixed config and seed; timings go
to stderr so they never perturb the comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .contraction import ContractionReport, check_g_phi
from .errors import (
    ConfigError,
    InverseUndefined,
    NoAdmissibleSuccessor,
    NotBijective,
    NotDemicompact,
    ParseError,
    PhiInvalid,
    UnknownPoint,
    ValidationError,
)
from .fmspace import (
    EuclideanSpace,
    FiniteSpace,
    FuzzyMetric,
    IntervalSpace,
    Point,
    Space,
    threshold,
    verify_fm_axioms,
)
from .maps import (
    AffineBijection,
    AffineMap,
    BijectionSpec,
    ConstantMap,
    MapSpec,
    PermutationBijection,
    TableMap,
    identity_for,
)
from .multivalued import SetValuedMap, solve_inclusion, validate_setvalued
from .phi import InducedPhi, LinearPhi, PhiFunction, RationalPhi, TablePhi, verify_phi_class
from .report import Report
from .solver import SolveResult, SolverConfig, solve_coincidence
from .tnorm import TNorm, verify_tnorm_axioms

COMMANDS = (
    "check-axioms",
    "check-phi",
    "check-contraction",
    "solve",
    "solve-set",
    "threshold",
    "induce-phi",
)

_INDUCE_CURVE_STEPS = 8


@dataclass(frozen=True)
class ProblemConfig:
    space: Space
    norm: TNorm
    phi: Optional[PhiFunction]
    f: Optional[MapSpec]
    g: BijectionSpec
    setvalued: Optional[SetValuedMap]
    solver: Optional[SolverConfig]
    query: Optional[Tuple[Point, Point]]
    samples: int
    seed: int
    grid: int
    digest: str


@dataclass(frozen=True)
class RunReport:
    command: str
    config_digest: str
    seed: int
    samples: int
    verdicts: dict
    counterexamples: list
    result: Optional[dict]


def format17(value: float) -> str:
    return f"{float(value):.17g}"


def _point_token(p: Point) -> str:
    if isinstance(p, str):
        return p
    if isinstance(p, tuple):
        return ",".join(format17(c) for c in p)
    return format17(p)


def _jsonable_point(p: Point):
    if isinstance(p, tuple):
        return list(p)
    return p


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"{key}: section is required")
    return doc[key]


def _parse_space(raw) -> Space:
    if not isinstance(raw, dict):
        raise ValidationError("space: must be an object")
    kind = raw.get("kind")
    normalize = bool(raw.get("normalize", False))
    try:
        if kind == "finite":
            return FiniteSpace(
                labels=tuple(raw["points"]),
                dist=tuple(tuple(row) for row in raw["dist"]),
                normalize=normalize,
            )
        if kind == "interval":
            return IntervalSpace(
                lo=float(raw["lo"]), hi=float(raw["hi"]), normalize=normalize
            )
        if kind == "euclidean":
            bound = raw.get("bound")
            return EuclideanSpace(
                dim=int(raw["dim"]),
                bound=None if bound is None else float(bound),
                normalize=normalize,
            )
    except KeyError as exc:
        raise ValidationError(f"space: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"space: {exc}") from None
    raise ValidationError(f"space: unknown kind {kind!r}")


def _parse_point(space: Space, raw, where: str) -> Point:
    try:
        if isinstance(space, FiniteSpace):
            if not isinstance(raw, str):
                raise ValueError("finite-space points are label strings")
            point: Point = raw
        elif isinstance(space, IntervalSpace):
            point = float(raw)
        else:
            if isinstance(raw, (int, float)):
                point = space.coords(float(raw))
            else:
                point = tuple(float(v) for v in raw)
        if not space.contains(point):
            raise ValueError(f"{point!r} lies outside the space")
        return point
    except (TypeError, ValueError, UnknownPoint) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_phi(raw) -> PhiFunction:
    if not isinstance(raw, dict):
        raise ValidationError("phi: must be an object")
    kind = raw.get("kind")
    try:
        if kind == "linear":
            return LinearPhi(k=float(raw["k"]))
        if kind == "rational":
            return RationalPhi()
        if kind == "induced":
            return InducedPhi(k=float(raw["k"]), cap=float(raw["cap"]))
        if kind == "table":
            return TablePhi(points=tuple(tuple(p) for p in raw["points"]))
    except KeyError as exc:
        raise ValidationError(f"phi: missing field {exc.args[0]!r}") from None
    except Exception as exc:
        raise ValidationError(f"phi: {exc}") from None
    raise ValidationError(f"phi: unknown kind {kind!r}")


def _parse_map(space: Space, raw, where: str) -> MapSpec:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    kind = raw.get("kind")
    try:
        if kind == "affine":
            return AffineMap(a=float(raw["a"]), b=float(raw["b"]))
        if kind == "constant":
            return ConstantMap(c=_parse_point(space, raw["c"], f"{where}.c"))
        if kind == "table":
            mapping = {
                _parse_point(space, key, f"{where}.map"): _parse_point(
                    space, value, f"{where}.map"
                )
                for key, value in raw["map"].items()
            }
            return TableMap(mapping)
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(f"{where}: unknown kind {kind!r}")


def _parse_bijection(space: Space, raw) -> BijectionSpec:
    if not isinstance(raw, dict):
        raise ValidationError("g: must be an object")
    kind = raw.get("kind")
    try:
        if kind == "affine":
            return AffineBijection(a=float(raw["a"]), b=float(raw["b"]))
        if kind == "permutation":
            return PermutationBijection(dict(raw["map"]))
    except KeyError as exc:
        raise ValidationError(f"g: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"g: {exc}") from None
    raise ValidationError(f"g: unknown kind {kind!r}")


def _parse_setvalued(space: Space, raw) -> SetValuedMap:
    if not isinstance(raw, dict) or raw.get("kind") != "setvalued":
        raise ValidationError('T: must be an object with kind "setvalued"')
    table = raw.get("map")
    if not isinstance(table, dict) or not table:
        raise ValidationError("T.map: must be a nonempty object")
    images = {}
    for key, values in table.items():
        point = _parse_point(space, key, "T.map")
        if not isinstance(values, list) or not values:
            raise ValidationError(f"T.map[{key!r}]: image must be a nonempty list")
        images[point] = tuple(_parse_point(space, v, "T.map") for v in values)
    mapping = SetValuedMap(images)
    try:
        validate_setvalued(space, mapping)
    except ValueError as exc:
        raise ValidationError(f"T: {exc}") from None
    return mapping


def _parse_solver(space: Space, raw) -> SolverConfig:
    if not isinstance(raw, dict):
        raise ValidationError("solver: must be an object")
    try:
        return SolverConfig(
            start=_parse_point(space, _require(raw, "start"), "solver.start"),
            epsilon=float(_require(raw, "epsilon")),
            lam=float(_require(raw, "lambda")),
            t0=float(raw.get("t0", 2.0)),
            max_iter=int(raw.get("max_iter", 10000)),
            residual_times=(
                tuple(float(t) for t in raw["residual_times"])
                if "residual_times" in raw
                else None
            ),
            window=int(raw.get("window", 2)),
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"solver: {exc}") from None


def _reject_constant(token: str):
    raise ParseError(f"{token} is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise ParseError(f"number {literal} overflows a float")
    return value


def _finite_int(literal: str) -> int:
    value = int(literal)
    if abs(value) > sys.float_info.max:
        raise ParseError(f"number {literal} overflows a float")
    return value


def parse_config(text: str) -> ProblemConfig:
    """Parse and structurally validate a JSON configuration document.

    Every number must be finite: the NaN and Infinity tokens and literals
    beyond the float range are parse errors.
    """
    try:
        doc = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=_finite_float,
            parse_int=_finite_int,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValidationError("top level: must be an object")

    space = _parse_space(_require(doc, "space"))
    try:
        norm = TNorm(doc.get("tnorm", "product"))
    except ValueError as exc:
        raise ValidationError(f"tnorm: {exc}") from None

    phi = _parse_phi(doc["phi"]) if "phi" in doc else None
    f = _parse_map(space, doc["f"], "f") if "f" in doc else None
    if "g" in doc:
        g = _parse_bijection(space, doc["g"])
    else:
        g = identity_for(space)
    try:
        g.validate_bijection(space)
    except NotBijective as exc:
        raise ValidationError(f"g: {exc}") from None
    setvalued = _parse_setvalued(space, doc["T"]) if "T" in doc else None
    solver = _parse_solver(space, doc["solver"]) if "solver" in doc else None

    query = None
    if "query" in doc:
        raw = doc["query"]
        if not isinstance(raw, dict):
            raise ValidationError("query: must be an object")
        query = (
            _parse_point(space, _require(raw, "x"), "query.x"),
            _parse_point(space, _require(raw, "y"), "query.y"),
        )

    verification = doc.get("verification", {})
    if not isinstance(verification, dict):
        raise ValidationError("verification: must be an object")

    return ProblemConfig(
        space=space,
        norm=norm,
        phi=phi,
        f=f,
        g=g,
        setvalued=setvalued,
        solver=solver,
        query=query,
        samples=int(verification.get("samples", 10000)),
        seed=int(verification.get("seed", 0)),
        grid=int(verification.get("grid", 11)),
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def _report_dict(report: Report) -> dict:
    return {
        "passed": report.passed,
        "laws": [
            {
                "name": law.name,
                "passed": law.passed,
                "checks": law.checks,
                "witnesses": [_jsonable_witness(w) for w in law.witnesses],
            }
            for law in report.laws
        ],
    }


def _jsonable_witness(witness):
    return [_jsonable_point(v) if isinstance(v, (str, tuple)) else v for v in witness]


def _counterexample_dicts(report: ContractionReport) -> list:
    out = []
    for ce in report.counterexamples:
        entry = {
            "x": _jsonable_point(ce.x),
            "y": _jsonable_point(ce.y),
            "t": ce.t,
            "antecedent": ce.antecedent,
            "consequent": ce.consequent,
        }
        if ce.u is not None:
            entry["u"] = _jsonable_point(ce.u)
        out.append(entry)
    return out


def _solve_result_dict(res: SolveResult) -> dict:
    return {
        "point": _jsonable_point(res.point),
        "iterations": res.iterations,
        "horizon_used": res.horizon_used,
        "residuals": [[t, grade] for t, grade in res.residuals],
        "converged": res.converged,
    }


def _write_trace(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, point, grade in records:
            handle.write(f"{index} {_point_token(point)} {format17(grade)}\n")


def _need(cfg: ProblemConfig, attr: str, message: str):
    value = getattr(cfg, attr)
    if value is None:
        raise ValidationError(message)
    return value


def run(
    command: str,
    cfg: ProblemConfig,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
    max_iter: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> Tuple[RunReport, int]:
    """Dispatch a command against a parsed config.

    Returns the report and the process exit code. Flag overrides win
    over config values; hypothesis failures surface as exit code 1 with
    the report intact.
    """
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    seed = cfg.seed if seed is None else seed
    samples = cfg.samples if samples is None else samples
    solver_cfg = cfg.solver
    if solver_cfg is not None and max_iter is not None:
        solver_cfg = replace(solver_cfg, max_iter=max_iter)

    verdicts: dict = {}
    counterexamples: list = []
    result = None
    code = 0
    fm = FuzzyMetric(cfg.space, cfg.norm)

    try:
        if command == "check-axioms":
            tnorm_report = verify_tnorm_axioms(cfg.norm, grid=cfg.grid)
            fm_report = verify_fm_axioms(fm, samples=samples, seed=seed)
            verdicts["tnorm"] = _report_dict(tnorm_report)
            verdicts["fm_axioms"] = _report_dict(fm_report)
            code = 0 if tnorm_report.passed and fm_report.passed else 1

        elif command == "check-phi":
            phi = _need(cfg, "phi", "check-phi requires a phi section")
            report = verify_phi_class(phi, grid=max(cfg.grid, 2))
            verdicts["phi_class"] = _report_dict(report)
            code = 0 if report.passed else 1

        elif command == "check-contraction":
            phi = _need(cfg, "phi", "check-contraction requires a phi section")
            f = _need(cfg, "f", "check-contraction requires an f section")
            report = check_g_phi(fm, f, cfg.g, phi, samples=samples, seed=seed)
            verdicts["contraction"] = {
                "passed": report.passed,
                "checked_pairs": report.checked_pairs,
                "method": report.method,
            }
            counterexamples = _counterexample_dicts(report)
            code = 0 if report.passed else 1

        elif command == "solve":
            phi = _need(cfg, "phi", "solve requires a phi section")
            f = _need(cfg, "f", "solve requires an f section")
            if cfg.setvalued is not None:
                raise ValidationError("solve takes f, not T; use solve-set")
            scfg = _need_solver(solver_cfg)
            res = solve_coincidence(fm, f, cfg.g, phi, scfg)
            result = _solve_result_dict(res)
            if trace_path:
                _write_trace(
                    trace_path,
                    [(r.index, r.point, r.successive_grade) for r in res.trace],
                )
            code = 0 if res.converged else 1

        elif command == "solve-set":
            phi = _need(cfg, "phi", "solve-set requires a phi section")
            T = _need(cfg, "setvalued", "solve-set requires a T section")
            if cfg.f is not None:
                raise ValidationError("solve-set takes T, not f; use solve")
            scfg = _need_solver(solver_cfg)
            res = solve_inclusion(fm, T, cfg.g, phi, scfg)
            result = {
                "point": _jsonable_point(res.point),
                "orbit_length": len(res.orbit),
                "in_image_of_carried": res.in_image_of_carried,
                "in_image": res.in_image,
                "member_check": [
                    {
                        "epsilon": e.epsilon,
                        "lambda": e.lam,
                        "witness": _jsonable_point(e.witness),
                        "grade": e.grade,
                        "passed": e.passed,
                    }
                    for e in res.member_check
                ],
                "converged": res.converged,
            }
            if trace_path:
                records = []
                for n in range(1, len(res.orbit)):
                    grade = fm.membership(
                        res.orbit[n], res.orbit[n - 1], scfg.epsilon
                    )
                    records.append((n, res.orbit[n], grade))
                _write_trace(trace_path, records)
            code = 0 if res.converged else 1

        elif command == "threshold":
            if cfg.query is None:
                raise ValidationError("threshold requires a query section with x and y")
            x, y = cfg.query
            tau = threshold(fm, x, y)
            result = {
                "x": _jsonable_point(x),
                "y": _jsonable_point(y),
                "tau": tau,
                "membership_at_tau": fm.membership(x, y, tau),
            }
            code = 0

        elif command == "induce-phi":
            phi = _need(cfg, "phi", "induce-phi requires a phi section")
            if not isinstance(phi, InducedPhi):
                raise ValidationError('induce-phi requires phi of kind "induced"')
            report = verify_phi_class(phi, grid=max(cfg.grid, 2))
            verdicts["phi_class"] = _report_dict(report)
            curve = []
            for i in range(1, _INDUCE_CURVE_STEPS + 1):
                t = 2.0 * phi.tau_cap * i / _INDUCE_CURVE_STEPS
                curve.append([t, phi.eval(t)])
            result = {
                "k": phi.k,
                "cap": phi.cap,
                "tau_cap": phi.tau_cap,
                "anchor": phi.anchor,
                "curve": curve,
            }
            code = 0 if report.passed else 1

    except (PhiInvalid, NoAdmissibleSuccessor, InverseUndefined, NotDemicompact) as exc:
        verdicts["hypothesis_failure"] = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        code = 1

    report = RunReport(
        command=command,
        config_digest=cfg.digest,
        seed=seed,
        samples=samples,
        verdicts=verdicts,
        counterexamples=counterexamples,
        result=result,
    )
    return report, code


def _need_solver(solver_cfg: Optional[SolverConfig]) -> SolverConfig:
    if solver_cfg is None:
        raise ValidationError("this command requires a solver section")
    return solver_cfg


def render_report(report: RunReport) -> str:
    payload = {
        "command": report.command,
        "config_digest": report.config_digest,
        "seed": report.seed,
        "samples": report.samples,
        "verdicts": report.verdicts,
        "counterexamples": report.counterexamples,
        "result": report.result,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuzzfix",
        description="Contraction checks and fixed-point solves on fuzzy metric spaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--trace", default=None, help="write iteration trace here")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        cfg = parse_config(text)
        report, code = run(
            args.command,
            cfg,
            seed=args.seed,
            samples=args.samples,
            max_iter=args.max_iter,
            trace_path=args.trace,
        )
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConfigError, UnknownPoint, NotBijective, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report))
    print(f"elapsed_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
