"""Continuous t-norms on [0, 1] and the witness searches built on them.

Three built-in norms are provided: product, minimum, and Lukasiewicz.
All three are continuous, so the helper searches below (square-root
levels, fold margins) always terminate with a valid witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import LawCheck, Report

Grade = float

VARIANTS = ("product", "minimum", "lukasiewicz")

DEFAULT_TOL = 1e-9

# Floating-point products and sums do not reassociate exactly; every other
# law is checked with exact comparisons.
_ASSOC_TOL = 1e-15

_WITNESS_CAP = 8


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm selected by name from the built-in family."""

    variant: str = "product"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown t-norm variant {self.variant!r}; expected one of {VARIANTS}"
            )

    def combine(self, a: Grade, b: Grade) -> Grade:
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"grades must lie in [0, 1], got {a!r} and {b!r}")
        if self.variant == "product":
            return a * b
        if self.variant == "minimum":
            return a if a <= b else b
        # Lukasiewicz. A unit argument is returned directly so that
        # combine(a, 1.0) == a holds exactly in floating point.
        if a == 1.0:
            return b
        if b == 1.0:
            return a
        s = a + b - 1.0
        return s if s > 0.0 else 0.0


def fold(norm: TNorm, a: Grade, depth: int) -> Grade:
    """Combine ``a`` with itself ``depth`` times (left associated)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    acc = a
    for _ in range(depth - 1):
        acc = norm.combine(acc, a)
    return acc


def sqrt_level(norm: TNorm, r: Grade, tol: float = DEFAULT_TOL) -> Grade:
    """Least s (up to ``tol``) with combine(s, s) >= r, for r in (0, 1).

    Bisection on the nondecreasing map s -> combine(s, s); the returned
    level satisfies the bound while s - tol does not (or is <= 0).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm.combine(mid, mid) >= r:
            hi = mid
        else:
            lo = mid
    return hi


def delta_for_lambda(
    norm: TNorm, lam: Grade, depth: int, tol: float = DEFAULT_TOL
) -> Grade:
    """Largest margin delta (up to ``tol``) whose ``depth``-fold of
    (1 - delta) stays >= 1 - lam.

    Bisection on the nonincreasing map delta -> fold(1 - delta, depth);
    the returned delta satisfies the bound while delta + tol does not.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    target = 1.0 - lam
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fold(norm, 1.0 - mid, depth) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def verify_tnorm_axioms(norm: TNorm, grid: int = 11) -> Report:
    """Check the t-norm laws on an evenly spaced grade grid.

    Commutativity, the unit law, and monotonicity are compared exactly;
    associativity allows a 1e-15 slack (see ``_ASSOC_TOL``). The
    diagonal-sup condition is probed on levels approaching 1.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    levels = [i / (grid - 1) for i in range(grid)]
    laws = []

    comm = []
    for a in levels:
        for b in levels:
            if norm.combine(a, b) != norm.combine(b, a):
                comm.append((a, b))
    laws.append(LawCheck.of("commutativity", grid * grid, comm, _WITNESS_CAP))

    assoc = []
    for a in levels:
        for b in levels:
            for c in levels:
                lhs = norm.combine(norm.combine(a, b), c)
                rhs = norm.combine(a, norm.combine(b, c))
                if abs(lhs - rhs) > _ASSOC_TOL:
                    assoc.append((a, b, c))
    laws.append(LawCheck.of("associativity", grid ** 3, assoc, _WITNESS_CAP))

    unit = [(a,) for a in levels if norm.combine(a, 1.0) != a]
    laws.append(LawCheck.of("unit", grid, unit, _WITNESS_CAP))

    mono = []
    ascending = [(levels[i], levels[k]) for i in range(grid) for k in range(i, grid)]
    for a, c in ascending:
        for b, d in ascending:
            if norm.combine(a, b) > norm.combine(c, d):
                mono.append((a, b, c, d))
    laws.append(LawCheck.of("monotonicity", len(ascending) ** 2, mono, _WITNESS_CAP))

    # sup_{a<1} combine(a, a) == 1: evaluate along a ladder 1 - 2**-k.
    best = 0.0
    for k in range(1, 41):
        a = 1.0 - 2.0 ** -k
        best = max(best, norm.combine(a, a))
    sup_fail = [] if best >= 1.0 - 1e-6 else [(best,)]
    laws.append(LawCheck.of("sup_diagonal", 40, sup_fail, _WITNESS_CAP))

    return Report(laws=tuple(laws))

