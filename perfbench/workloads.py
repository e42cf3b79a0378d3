"""Seeded job lists for the three benchmark workloads.

A workload is a list of JSON configs and a list of jobs. A job names a
CLI command, the config it runs on, keyword overrides for ``cli.run``
(``seed``, ``samples``, ``max_iter``) and what its oracle expects. The
same ``--seed`` gives the same lists. The seed draws coefficients,
offsets, permutations and sample seeds; the sizes that set a job's cost
(pair counts, sample counts, space sizes, tolerance ladders) follow
fixed ladders, so the cost of a round barely moves with the seed.

This module does not import fuzzfix: it only writes inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import List

WORKLOADS = ("verify-continuum", "solve-ladder", "finite-batch")

TNORMS = ("product", "minimum", "lukasiewicz")

UNIT = {"kind": "interval", "lo": 0.0, "hi": 1.0}


@dataclass
class Job:
    command: str
    config: int
    kind: str
    overrides: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    docs: List[dict]
    jobs: List[Job]
    texts: List[str] = field(init=False)

    def __post_init__(self):
        self.texts = [json.dumps(doc) for doc in self.docs]


def tau(d: float) -> float:
    """Crossing time of t / (t + d) with 1 - t, in closed form."""
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


def _ladder(lo: float, hi: float, i: int, n: int) -> float:
    """The i-th of n points spaced geometrically from lo to hi."""
    return lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo


def _dyadic(x: float, bits: int = 10) -> float:
    return round(x * 2 ** bits) / 2 ** bits


def _round(x: float) -> float:
    return float(f"{x:.9g}")


def _pick(rng: random.Random, lo: float, hi: float, j: int, jitter: float = 0.02) -> float:
    """A value in [lo, hi] placed by the job index j, jittered by the seed.

    Parameters that change a job's cost are placed this way, so a round
    costs about the same whatever the seed.
    """
    u = (j * 0.6180339887498949) % 1.0
    return (lo + (hi - lo) * u) * (1.0 + jitter * rng.uniform(-1.0, 1.0))


# ----------------------------------------------------------------- moduli


def _table_admissible(rng: random.Random, first: float, ratio: float, top: float = 1.9) -> list:
    """Step modulus from (0, 0) with breakpoints at first .. top and values
    nondecreasing and below ratio * t."""
    points = [[0.0, 0.0]]
    for share, scale in ((0.0, 0.5), (0.45, 0.7), (0.9, 0.9)):
        t = _round((first + (top - first) * share) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)))
        points.append([t, _round(scale * ratio * t)])
    return points


def _table_inadmissible(rng: random.Random, above_identity: bool) -> list:
    """A table whose fault spans at least one check-phi grid point.

    Either a value at or above the identity over a stretch of width 0.4,
    or a drop in value that holds for 0.5 after a wide plateau.
    """
    if above_identity:
        t1 = _round(rng.uniform(0.35, 0.45))
        t2 = _round(rng.uniform(1.1, 1.2))
        return [[0.0, 0.0], [t1, _round(0.5 * t1)], [t2, _round(t2 + 0.4)]]
    t1 = _round(rng.uniform(0.35, 0.45))
    t2 = _round(t1 + rng.uniform(0.55, 0.65))
    high = _round(0.8 * t1)
    return [[0.0, 0.0], [t1, high], [t2, _round(0.3 * high)]]


# --------------------------------------------------------- verify-continuum

# Pairs of the plateau jobs: 0.07-0.12 s each on a 2-vCPU Xeon VM, above
# every check-axioms job and below every dearer contraction job.
PLATEAU_PAIRS = 6000


def _continuum_space(kind: str, rng: random.Random):
    """(space doc, diameter, reflection g doc) with fixed diameters."""
    if kind == "interval":
        lo = _dyadic(rng.uniform(-1.0, 1.0), 6)
        hi = lo + 1.0
        return (
            {"kind": "interval", "lo": lo, "hi": hi},
            1.0,
            {"kind": "affine", "a": -1.0, "b": lo + hi},
        )
    dim = 2 if kind == "eu2" else 3
    return (
        {"kind": "euclidean", "dim": dim, "bound": 1.0},
        2.0 * math.sqrt(dim),
        {"kind": "affine", "a": -1.0, "b": 0.0},
    )


def _affine_into(space: dict, a: float, rng: random.Random) -> dict:
    """f(x) = a x + b mapping the space into itself, with b drawn inside."""
    if space["kind"] == "interval":
        lo, hi = space["lo"], space["hi"]
        width = (hi - lo) * (1.0 - abs(a))
        start = lo + rng.uniform(0.01, 0.99) * width
        # image of [lo, hi] is [start, start + |a| (hi - lo)]
        b = start - (a * lo if a > 0 else a * hi)
        return {"kind": "affine", "a": a, "b": _round(b)}
    bound = space["bound"]
    b = rng.uniform(-0.95, 0.95) * bound * (1.0 - abs(a))
    return {"kind": "affine", "a": a, "b": _round(b)}


def linear_pass_ratio(a: float, diameter: float) -> float:
    """Largest tau(a d) / tau(d) over 0 < d <= diameter (a log grid)."""
    best = 0.0
    for i in range(401):
        d = diameter * 10.0 ** (-12.0 * i / 400)
        best = max(best, tau(a * d) / tau(d))
    return best


def _contraction_job(rng: random.Random, j: int, kind: str, modulus: str, passing: bool, samples: int):
    """One check-contraction config that passes by construction, or fails
    on every pair of distinct points."""
    space, diameter, reflect = _continuum_space(kind, rng)
    sign = rng.choice((1.0, -1.0))
    if passing and modulus == "induced":
        k = _round(_pick(rng, 0.3, 0.8, j))
        a = _round(sign * k * _pick(rng, 0.6, 0.9, j + 1))
        phi = {"kind": "induced", "k": k, "cap": _round(diameter * _pick(rng, 1.05, 1.5, j + 2))}
    elif passing:
        a = _round(sign * _pick(rng, 0.05, 0.3, j))
        worst = linear_pass_ratio(abs(a), diameter)
        phi = {"kind": "linear", "k": _round(worst + (1.0 - worst) * _pick(rng, 0.3, 0.7, j + 1))}
    elif modulus == "linear":
        a = _round(sign * _pick(rng, 0.3, 0.9, j))
        phi = {"kind": "linear", "k": _round(abs(a) * _pick(rng, 0.5, 0.95, j + 1))}
    elif modulus == "induced":
        a = _round(sign * _pick(rng, 0.5, 0.9, j))
        phi = {"kind": "induced", "k": _round(abs(a) * _pick(rng, 0.3, 0.8, j + 1)), "cap": _round(diameter * 1.2)}
    else:
        a = _round(sign * _pick(rng, 0.3, 0.9, j))
        phi = {"kind": "table", "points": _table_admissible(rng, _pick(rng, 0.25, 0.4, j + 1), 0.5)}
    doc = {
        "space": space,
        "tnorm": TNORMS[j % 3],
        "phi": phi,
        "f": _affine_into(space, a, rng),
        "verification": {"samples": samples, "seed": rng.randrange(2 ** 31)},
    }
    if j % 4 in (1, 2):
        doc["g"] = reflect
    verdict = "pass" if passing else "fail"
    return doc, Job(
        "check-contraction",
        -1,
        f"contraction-{kind}-{verdict}-{modulus}",
        expect={"verdict": passing, "diameter": diameter},
    )


def verify_continuum(seed: int, tiny: bool = False) -> Workload:
    """check-contraction on intervals and 2-3-D boxes plus check-axioms.

    Half the 28 contraction instances pass by construction and half fail
    on every pair of distinct points. The round has three blocks by cost
    so that the median job lies on a plateau of like jobs, not on a step
    between kinds of different cost:

    - 14 check-axioms jobs (three t-norms, three spaces), each cheaper
      than a plateau job;
    - 12 passing interval contractions with an induced modulus at
      PLATEAU_PAIRS pairs (ranks 33%-62%, so the median falls inside);
    - 16 dearer contractions, 2 passing and all 14 failing ones, on
      geometric pair ladders of 8,000-24,000 (interval) and 3,000-9,000
      (2-D and 3-D) pairs, where the 90th percentile falls.
    """
    rng = random.Random(f"verify-continuum/{seed}")
    docs, jobs = [], []

    def add(doc, job):
        docs.append(doc)
        job.config = len(docs) - 1
        jobs.append(job)

    n_axioms, n_plateau = (3, 2) if tiny else (14, 12)
    axiom_range = {"interval": (1500, 6000), "eu2": (250, 1000), "eu3": (250, 1000)}
    for j in range(n_axioms):
        kind = ("interval", "eu2", "eu3")[j % 3]
        samples = 100 if tiny else int(round(_ladder(*axiom_range[kind], j, n_axioms)))
        space, _, _ = _continuum_space(kind, rng)
        doc = {
            "space": space,
            "tnorm": TNORMS[(j // 3) % 3],
            "verification": {"samples": samples, "seed": rng.randrange(2 ** 31), "grid": 11},
        }
        add(doc, Job("check-axioms", -1, f"axioms-{kind}"))
    for j in range(n_plateau):
        add(*_contraction_job(rng, j, "interval", "induced", True, 200 if tiny else PLATEAU_PAIRS))
    dear = [("eu2", "linear", True), ("eu3", "induced", True)]
    dear += [(kind, modulus, False) for modulus in ("linear", "induced", "table") for kind in ("interval", "eu2", "eu3")]
    dear += [("interval", "linear", False), ("eu2", "induced", False), ("eu3", "table", False)]
    dear += [("interval", "induced", False), ("eu3", "linear", False)]
    if tiny:
        dear = dear[:1] + dear[2:5]
    pair_range = {"interval": (8000, 24000), "eu2": (3000, 9000), "eu3": (3000, 9000)}
    for j, (kind, modulus, passing) in enumerate(dear):
        samples = 200 if tiny else int(round(_ladder(*pair_range[kind], j, len(dear))))
        add(*_contraction_job(rng, n_plateau + j, kind, modulus, passing, samples))
    return Workload("verify-continuum", docs, jobs)


# ------------------------------------------------------------- solve-ladder

# The rational solve at this tolerance raises HorizonExceeded out of
# cli.run although the modulus is admissible: phi.horizon iterates with a
# step cap of 10**6 while the exact horizon is 1/target - 1/t0 ~ 10**7.
KNOWN_FAULT_EPSILON = 1e-7

_RATIONAL_RAISED_MIN_EPS = 3e-5

# Orbit length of the slow affine solves. They fill the middle of the
# sorted job costs, so one length keeps the median on a plateau.
SLOW_STEPS = 2000


def _interval_solve(
    rng: random.Random, q: float, phi: dict, eps: float, t0: float, reflect: bool, alternating: bool = False
) -> dict:
    """Solve on an interval of length 1, starting at distance 0.5 from the
    coincidence point, so the orbit length hardly depends on the seed.

    With ``alternating`` the step map x -> g^{-1}(f(x)) has ratio -q, so
    the orbit jumps across the coincidence point and its first step is
    (1 + q) / 2 long; otherwise the sign is drawn.
    """
    lo = _dyadic(rng.uniform(-2.0, 2.0), 6)
    hi = lo + 1.0
    space = {"kind": "interval", "lo": lo, "hi": hi}
    sign = (1.0 if reflect else -1.0) if alternating else rng.choice((1.0, -1.0))
    f = _affine_into(space, _round(sign * q), rng)
    g = {"kind": "affine", "a": -1.0, "b": lo + hi} if reflect else {"kind": "affine", "a": 1.0, "b": 0.0}
    z = (f["b"] - g["b"]) / (g["a"] - f["a"])
    start = z + 0.5 if z + 0.5 <= hi - 1e-6 else z - 0.5
    doc = {
        "space": space,
        "phi": phi,
        "f": f,
        "solver": {"start": _round(start), "epsilon": eps, "lambda": eps, "t0": t0},
    }
    if reflect:
        doc["g"] = g
    return doc


def _slow_ratio(eps: float, steps: int) -> float:
    """Ratio q whose alternating orbit from distance 0.5 needs about
    ``steps`` steps before successive points lie within eps^2 (the
    solver's stopping distance eps * lambda / (1 - lambda))."""
    q = 0.99
    for _ in range(20):
        q = math.exp(-math.log(0.5 * (1.0 + q) / (eps * eps)) / steps)
    return q


def _cheap_phi(kind: str, rng: random.Random, j: int) -> dict:
    if kind == "linear":
        return {"kind": "linear", "k": _round(_pick(rng, 0.3, 0.8, j))}
    if kind == "induced":
        return {"kind": "induced", "k": _round(_pick(rng, 0.3, 0.8, j)), "cap": _round(_pick(rng, 1.0, 4.0, j + 1))}
    return {"kind": "table", "points": _table_admissible(rng, _pick(rng, 0.05, 0.3, j), 0.7)}


def solve_ladder(seed: int, tiny: bool = False) -> Workload:
    """solve and check-phi for every modulus kind, eps = lambda from 1e-2 to 1e-6.

    Groups per round: fast contractions with cheap moduli, check-phi on
    cheap moduli, slow affine contractions whose orbits take thousands of
    steps (about SLOW_STEPS each), rational solves (max_iter raised to the horizon where that
    stays under ~3e4 steps), rational check-phi, and the one known fault.
    """
    rng = random.Random(f"solve-ladder/{seed}")
    docs, jobs = [], []
    cheap = ("linear", "induced", "table")
    scale = 4 if tiny else 1

    def add(doc, command, kind, **kw):
        docs.append(doc)
        jobs.append(Job(command, len(docs) - 1, kind, **kw))

    n = 12 // scale
    for i in range(n):
        eps = _round(_ladder(1e-2, 1e-6, i, n))
        kind = cheap[i % 3]
        doc = _interval_solve(rng, _pick(rng, 0.2, 0.8, i), _cheap_phi(kind, rng, i), eps, 2.0, i % 4 in (1, 2))
        add(doc, "solve", f"solve-fast-{kind}")
    n = 9 // scale
    for i in range(n):
        kind = cheap[i % 3]
        phi = _cheap_phi(kind, rng, i)
        if kind == "table" and i > 2:
            phi = {"kind": "table", "points": _table_inadmissible(rng, above_identity=i > 5)}
        add({"space": UNIT, "phi": phi, "verification": {"grid": 8 + i % 9}}, "check-phi", f"check-phi-{kind}")
    n = 18 // scale
    for i in range(n):
        eps = _round(_ladder(1e-2, 1e-6, (i * 7) % n, n))
        q = _slow_ratio(eps, SLOW_STEPS)
        kind = cheap[i % 3]
        doc = _interval_solve(rng, q, _cheap_phi(kind, rng, i), eps, 2.0, i % 4 in (1, 2), alternating=True)
        add(doc, "solve", f"solve-slow-{kind}")
    n = 14 // scale
    for i in range(n):
        eps = _round(_ladder(1e-2, 1e-6, i, n))
        t0 = (2.0, 2.5, 3.0)[i % 3]
        doc = _interval_solve(rng, _pick(rng, 0.2, 0.8, i), {"kind": "rational"}, eps, t0, i % 4 in (1, 2))
        if eps >= _RATIONAL_RAISED_MIN_EPS:
            doc["solver"]["max_iter"] = math.ceil(1.0 / eps - 1.0 / t0) + 1000
        add(doc, "solve", "solve-rational")
    n = 6 // scale
    for i in range(n):
        add({"space": UNIT, "phi": {"kind": "rational"}, "verification": {"grid": 8 + i}}, "check-phi", "check-phi-rational")
    # The known fault: its inputs do not depend on the seed.
    add(
        {
            "space": UNIT,
            "phi": {"kind": "rational"},
            "f": {"kind": "affine", "a": 0.5, "b": 0.0},
            "solver": {"start": 0.0, "epsilon": KNOWN_FAULT_EPSILON, "lambda": KNOWN_FAULT_EPSILON},
        },
        "solve",
        "solve-rational-1e-7",
        expect={"known_fault": "HorizonExceeded"},
    )
    return Workload("solve-ladder", docs, jobs)


# ------------------------------------------------------------- finite-batch


def _finite_space(rng: random.Random, n: int):
    """n distinct points of a 64 x 64 dyadic grid under the L1 metric.

    Dyadic coordinates keep every distance, sum and difference exact, so
    the space passes FiniteSpace's exact triangle check.
    """
    cells = rng.sample(range(64 * 64), n)
    coords = [((c % 64) / 64.0, (c // 64) / 64.0) for c in cells]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in coords] for a in coords]
    labels = [f"p{i}" for i in range(n)]
    return labels, dist


def _permutation(rng: random.Random, labels: list) -> dict:
    image = labels[:]
    rng.shuffle(image)
    return dict(zip(labels, image))


def _finite_phi(kind: str, rng: random.Random, diameter: float, j: int) -> dict:
    if kind == "linear":
        return {"kind": "linear", "k": _round(_pick(rng, 0.5, 0.9, j))}
    if kind == "induced":
        return {"kind": "induced", "k": _round(_pick(rng, 0.4, 0.8, j)), "cap": _round(diameter * _pick(rng, 1.0, 1.5, j + 1))}
    # The last breakpoint keeps phi(t0) >= 1 at the solver's default t0 = 2.
    points = _table_admissible(rng, _pick(rng, 0.05, 0.2, j), 0.7, top=1.4)
    points.append([1.9, _round(max(points[-1][1], _pick(rng, 1.0, 1.3, j + 1)))])
    return {"kind": "table", "points": points}


def finite_batch(seed: int, tiny: bool = False) -> Workload:
    """Many short jobs on finite spaces of 8 to 128 points, all seven commands.

    Spaces follow a geometric size ladder and take turns being a
    contraction config (check-contraction on spaces of at most 48 points,
    check-axioms, threshold, check-phi, induce-phi), a solve config (f a
    table with a unique coincidence point, g a permutation) or a solve-set
    config (T set-valued with a unique inclusion point).
    """
    rng = random.Random(f"finite-batch/{seed}")
    docs, jobs = [], []
    n_spaces = 9 if tiny else 36
    top = 24 if tiny else 128
    for i in range(n_spaces):
        n = int(round(_ladder(8, top, i, n_spaces)))
        labels, dist = _finite_space(rng, n)
        diameter = max(max(row) for row in dist)
        space = {"kind": "finite", "points": labels, "dist": dist}
        g = _permutation(rng, labels)
        role = i % 3
        if role == 0:
            phi_kind = ("linear", "induced")[(i // 3) % 2]
            phi = _finite_phi(phi_kind, rng, diameter, i)
            passing = (i // 6) % 2 == 0
            if passing:
                f = {"kind": "constant", "c": rng.choice(labels)}
            else:
                f = {"kind": "table", "map": dict(g)}
            x, y = rng.sample(labels, 2)
            doc = {
                "space": space,
                "tnorm": TNORMS[(i // 3) % 3],
                "phi": phi,
                "f": f,
                "g": {"kind": "permutation", "map": g},
                "verification": {"samples": n * n, "seed": rng.randrange(2 ** 31), "grid": 11},
                "query": {"x": x, "y": y},
            }
            docs.append(doc)
            c = len(docs) - 1
            if n <= 48:
                jobs.append(Job("check-contraction", c, f"contraction-{'pass' if passing else 'fail'}", expect={"verdict": passing}))
            jobs.append(Job("check-axioms", c, "axioms", overrides={"samples": 64 + 4 * n}))
            jobs.append(Job("threshold", c, "threshold"))
            jobs.append(Job("check-phi", c, f"check-phi-{phi_kind}"))
            if phi_kind == "induced":
                jobs.append(Job("induce-phi", c, "induce-phi"))
        elif role == 1:
            # h sends every point down a random tree to the root z; f = g o h,
            # so z is the only point with g(z) == f(z).
            order = labels[:]
            rng.shuffle(order)
            h = {order[0]: order[0]}
            for k in range(1, n):
                h[order[k]] = order[rng.randrange(max(0, k - 4), k)]
            f = {p: g[h[p]] for p in labels}
            eps = _round(_ladder(1e-2, 1e-6, (i // 3) % 5, 5))
            doc = {
                "space": space,
                "phi": _finite_phi(("linear", "induced", "table")[(i // 3) % 3], rng, diameter, i),
                "f": {"kind": "table", "map": f},
                "g": {"kind": "permutation", "map": g},
                "solver": {"start": rng.choice(labels), "epsilon": eps, "lambda": eps},
            }
            docs.append(doc)
            c = len(docs) - 1
            jobs.append(Job("solve", c, "solve"))
            jobs.append(Job("solve", c, "solve-capped", overrides={"max_iter": 2}))
        else:
            # T(g(x)) holds the root z and up to three points farther from x
            # than z, so every orbit steps to z and stays there.
            z = rng.choice(labels)
            index = {p: k for k, p in enumerate(labels)}
            table = {}
            for x in labels:
                dz = dist[index[x]][index[z]]
                farther = [p for p in labels if dist[index[x]][index[p]] > dz]
                extra = rng.sample(farther, min(len(farther), rng.randrange(4)))
                table[g[x]] = [z] + extra
            eps = _round(_ladder(1e-2, 1e-6, (i // 3) % 5, 5))
            doc = {
                "space": space,
                # A table modulus reaches 0, where no successor is admissible.
                "phi": _finite_phi(("linear", "induced")[(i // 3) % 2], rng, diameter, i),
                "T": {"kind": "setvalued", "map": table},
                "g": {"kind": "permutation", "map": g},
                "solver": {"start": rng.choice(labels), "epsilon": eps, "lambda": eps},
            }
            docs.append(doc)
            jobs.append(Job("solve-set", len(docs) - 1, "solve-set"))
    return Workload("finite-batch", docs, jobs)


BUILDERS = {
    "verify-continuum": verify_continuum,
    "solve-ladder": solve_ladder,
    "finite-batch": finite_batch,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny=tiny)
