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
    InvalidK,
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
    as_number,
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
from .multivalued import SetValuedMap, solve_inclusion
from .phi import InducedPhi, LinearPhi, PhiFunction, RationalPhi, TablePhi, verify_phi_class
from .report import Report
from .solver import IterationRecord, SolveResult, SolverConfig, solve_coincidence
from .tnorm import TNorm, verify_tnorm_axioms

# The config sections each command needs before it runs.
REQUIRES = {
    "check-axioms": (),
    "check-phi": ("phi",),
    "check-contraction": ("phi", "f"),
    "solve": ("phi", "f", "solver"),
    "solve-set": ("phi", "T", "solver"),
    "threshold": ("query",),
    "induce-phi": ("phi",),
}

COMMANDS = tuple(REQUIRES)

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


def _section(where: str, raw, build, *args):
    """Build one config section with ``build(raw, *args)``.

    Owns the errors every section shares, each under the section's
    prefix: not an object, a missing field, a bad value, and (through
    ``_of_kind``) an unknown kind.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    try:
        return build(raw, *args)
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, InvalidK) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _of_kind(raw: dict, kinds: dict, *args):
    """Dispatch on the section's ``kind`` through a kind -> constructor table."""
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    return kinds[kind](raw, *args)


# Field kinds: the JSON values each admits (true and false are no
# numbers) and their conversion.
_KINDS = {"a number": ((int, float), float), "an integer": ((int,), int), "a boolean": ((bool,), bool)}


def _field(raw: dict, name: str, kind: str, *default):
    """raw[name] if it is of the declared kind. An optional field (one
    with a default) that is missing or null takes the default."""
    if raw.get(name) is None and default:
        return default[0]
    types, convert = _KINDS[kind]
    if type(raw[name]) not in types:
        raise ValueError(f"field {name!r} must be {kind}")
    return convert(raw[name])


def _parse_point(space: Space, raw, where: str) -> Point:
    try:
        point = space.parse_point(raw)
        if not space.contains(point):
            raise ValueError(f"{point!r} lies outside the space")
        return point
    except (TypeError, ValueError, UnknownPoint) as exc:
        raise ValidationError(f"{where}: {exc}") from None


_SPACES = {
    "finite": lambda raw: FiniteSpace(
        labels=tuple(raw["points"]),
        dist=tuple(tuple(map(as_number, row)) for row in raw["dist"]),
        normalize=_field(raw, "normalize", "a boolean", False),
    ),
    "interval": lambda raw: IntervalSpace(
        lo=_field(raw, "lo", "a number"),
        hi=_field(raw, "hi", "a number"),
        normalize=_field(raw, "normalize", "a boolean", False),
    ),
    "euclidean": lambda raw: EuclideanSpace(
        dim=_field(raw, "dim", "an integer"),
        bound=_field(raw, "bound", "a number", None),
        normalize=_field(raw, "normalize", "a boolean", False),
    ),
}

_PHIS = {
    "linear": lambda raw: LinearPhi(k=_field(raw, "k", "a number")),
    "rational": lambda raw: RationalPhi(),
    "induced": lambda raw: InducedPhi(k=_field(raw, "k", "a number"), cap=_field(raw, "cap", "a number")),
    "table": lambda raw: TablePhi(points=tuple((as_number(t), as_number(v)) for t, v in raw["points"])),
}

_MAPS = {
    "affine": lambda raw, space: AffineMap(a=_field(raw, "a", "a number"), b=_field(raw, "b", "a number")),
    "constant": lambda raw, space: ConstantMap(c=_parse_point(space, raw["c"], "f.c")),
    "table": lambda raw, space: TableMap(
        {
            _parse_point(space, key, "f.map"): _parse_point(space, value, "f.map")
            for key, value in dict(raw["map"]).items()
        }
    ),
}

_BIJECTIONS = {
    "affine": lambda raw: AffineBijection(a=_field(raw, "a", "a number"), b=_field(raw, "b", "a number")),
    "permutation": lambda raw: PermutationBijection(dict(raw["map"])),
}


def _setvalued(raw, space: Space) -> SetValuedMap:
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
    return SetValuedMap(images)


def _solver(raw: dict, space: Space) -> SolverConfig:
    return SolverConfig(
        start=_parse_point(space, raw["start"], "solver.start"),
        epsilon=_field(raw, "epsilon", "a number"),
        lam=_field(raw, "lambda", "a number"),
        t0=_field(raw, "t0", "a number", 2.0),
        max_iter=_field(raw, "max_iter", "an integer", 10000),
        residual_times=(
            tuple(map(as_number, raw["residual_times"])) if "residual_times" in raw else None
        ),
        window=_field(raw, "window", "an integer", 2),
    )


def _query(raw: dict, space: Space) -> Tuple[Point, Point]:
    return (
        _parse_point(space, raw["x"], "query.x"),
        _parse_point(space, raw["y"], "query.y"),
    )


def _verification(raw: dict) -> Tuple[int, int, int]:
    return (
        _field(raw, "samples", "an integer", 10000),
        _field(raw, "seed", "an integer", 0),
        _field(raw, "grid", "an integer", 11),
    )


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
    if "space" not in doc:
        raise ValidationError("space: section is required")

    space = _section("space", doc["space"], _of_kind, _SPACES)
    try:
        norm = TNorm(doc.get("tnorm", "product"))
    except ValueError as exc:
        raise ValidationError(f"tnorm: {exc}") from None
    phi = _section("phi", doc["phi"], _of_kind, _PHIS) if "phi" in doc else None
    f = _section("f", doc["f"], _of_kind, _MAPS, space) if "f" in doc else None
    if "g" in doc:
        g = _section("g", doc["g"], _of_kind, _BIJECTIONS)
    else:
        g = identity_for(space)
    try:
        g.validate_bijection(space)
    except NotBijective as exc:
        raise ValidationError(f"g: {exc}") from None
    setvalued = _setvalued(doc["T"], space) if "T" in doc else None
    solver = _section("solver", doc["solver"], _solver, space) if "solver" in doc else None
    query = _section("query", doc["query"], _query, space) if "query" in doc else None
    samples, seed, grid = _section("verification", doc.get("verification", {}), _verification)

    return ProblemConfig(
        space=space,
        norm=norm,
        phi=phi,
        f=f,
        g=g,
        setvalued=setvalued,
        solver=solver,
        query=query,
        samples=samples,
        seed=seed,
        grid=grid,
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
                "witnesses": law.witnesses,
            }
            for law in report.laws
        ],
    }


def _counterexample_dicts(report: ContractionReport) -> list:
    out = []
    for ce in report.counterexamples:
        entry = {
            "x": ce.x,
            "y": ce.y,
            "t": ce.t,
            "antecedent": ce.antecedent,
            "consequent": ce.consequent,
        }
        if ce.u is not None:
            entry["u"] = ce.u
        out.append(entry)
    return out


def _solve_result_dict(res: SolveResult) -> dict:
    return {
        "point": res.point,
        "iterations": res.iterations,
        "horizon_used": res.horizon_used,
        "residuals": [[t, grade] for t, grade in res.residuals],
        "converged": res.converged,
    }


def _write_trace(path: str, records: Tuple[IterationRecord, ...]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r in records:
            handle.write(f"{r.index} {_point_token(r.point)} {format17(r.successive_grade)}\n")


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
    the report intact. A config without a section the command
    ``REQUIRES`` raises ValidationError.
    """
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    for section in REQUIRES[command]:
        if getattr(cfg, "setvalued" if section == "T" else section) is None:
            raise ValidationError(f"{section}: section is required by {command}")
    seed = cfg.seed if seed is None else seed
    samples = cfg.samples if samples is None else samples
    solver = cfg.solver
    if solver is not None and max_iter is not None:
        solver = replace(solver, max_iter=max_iter)

    verdicts: dict = {}
    counterexamples: list = []
    result = None
    trace = None
    code = 0
    fm = FuzzyMetric(cfg.space, cfg.norm)
    # Admissibility is checked on the range the solvers require.
    t_max = 2.0 if solver is None else solver.t_max

    try:
        if command == "check-axioms":
            tnorm_report = verify_tnorm_axioms(cfg.norm, grid=cfg.grid)
            fm_report = verify_fm_axioms(fm, samples=samples, seed=seed)
            verdicts["tnorm"] = _report_dict(tnorm_report)
            verdicts["fm_axioms"] = _report_dict(fm_report)
            code = 0 if tnorm_report.passed and fm_report.passed else 1

        elif command == "check-phi":
            report = verify_phi_class(cfg.phi, grid=max(cfg.grid, 2), t_max=t_max)
            verdicts["phi_class"] = _report_dict(report)
            code = 0 if report.passed else 1

        elif command == "check-contraction":
            report = check_g_phi(fm, cfg.f, cfg.g, cfg.phi, samples=samples, seed=seed)
            verdicts["contraction"] = {
                "passed": report.passed,
                "checked_pairs": report.checked_pairs,
                "method": report.method,
            }
            counterexamples = _counterexample_dicts(report)
            code = 0 if report.passed else 1

        elif command == "solve":
            if cfg.setvalued is not None:
                raise ValidationError("solve takes f, not T; use solve-set")
            res = solve_coincidence(fm, cfg.f, cfg.g, cfg.phi, solver)
            result = _solve_result_dict(res)
            trace = res.trace
            code = 0 if res.converged else 1

        elif command == "solve-set":
            if cfg.f is not None:
                raise ValidationError("solve-set takes T, not f; use solve")
            res = solve_inclusion(fm, cfg.setvalued, cfg.g, cfg.phi, solver)
            result = {
                "point": res.point,
                "orbit_length": len(res.orbit),
                "in_image_of_carried": res.in_image_of_carried,
                "in_image": res.in_image,
                "member_check": [
                    {
                        "epsilon": e.epsilon,
                        "lambda": e.lam,
                        "witness": e.witness,
                        "grade": e.grade,
                        "passed": e.passed,
                    }
                    for e in res.member_check
                ],
                "converged": res.converged,
            }
            trace = res.trace
            code = 0 if res.converged else 1

        elif command == "threshold":
            x, y = cfg.query
            tau = threshold(fm, x, y)
            result = {
                "x": x,
                "y": y,
                "tau": tau,
                "membership_at_tau": fm.membership(x, y, tau),
            }
            code = 0

        elif command == "induce-phi":
            phi = cfg.phi
            if not isinstance(phi, InducedPhi):
                raise ValidationError('induce-phi requires phi of kind "induced"')
            report = verify_phi_class(phi, grid=max(cfg.grid, 2), t_max=t_max)
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

        if trace_path and trace is not None:
            _write_trace(trace_path, trace)

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
    print(f"elapsed_s={time.perf_counter() - started:.6f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
