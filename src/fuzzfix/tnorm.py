"""Continuous t-norms on [0, 1] and the fold margin built on them.

Three built-in norms are provided: product, minimum, and Lukasiewicz.
Each has a closed form for the margin its folds allow, and
``delta_for_lambda`` steps from it to the exact float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .report import LawCheck, Report

Grade = float

VARIANTS = ("product", "minimum", "lukasiewicz")

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


def delta_for_lambda(norm: TNorm, lam: Grade, depth: int) -> Grade:
    """The margin delta whose level v = 1 - delta is the least a float
    margin reaches with fold(v, depth) > 1 - lam, strictly, as entourages
    are strict (``fmspace.in_uniformity``).

    The closed form for v ((1 - lam)**(1/depth), 1 - lam or 1 - lam/depth
    for product, minimum and Lukasiewicz) lands within an ulp or two of
    it, and ``math.nextafter`` steps to the float. Below 1/2 the levels
    1 - delta lie on the 2**-53 grid of delta in (1/2, 1), so v goes up
    to that grid. delta is 1 - v exactly; the level one step below, v -
    2**-53, does not pass.
    """
    if not 0.0 < lam < 1.0 or 1.0 - lam == 1.0:
        raise ValueError("lam must lie strictly between 0 and 1, with 1 - lam below 1 in floats")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    target = 1.0 - lam
    if norm.variant == "product":
        v = target ** (1.0 / depth)
    elif norm.variant == "minimum":
        v = target
    else:
        v = 1.0 - lam / depth
    while fold(norm, v, depth) <= target:
        v = math.nextafter(v, 1.0)
    while fold(norm, math.nextafter(v, 0.0), depth) > target:
        v = math.nextafter(v, 0.0)
    delta = 1.0 - v
    return delta if 1.0 - delta >= v else math.nextafter(delta, 0.0)


def verify_tnorm_axioms(norm: TNorm, grid: int = 11) -> Report:
    """Check the t-norm laws on an evenly spaced grade grid.

    The laws read one table of the grid's grades, table[i][j] =
    combine(levels[i], levels[j]): commutativity and monotonicity compare
    its entries, and associativity combines them once more on each side.
    Commutativity, the unit law, and monotonicity are compared exactly;
    associativity allows a 1e-15 slack (see ``_ASSOC_TOL``). The
    diagonal-sup condition is probed on levels approaching 1.

    Two laws are decided without their full scan where it cannot fail;
    each report keeps its verdicts, check counts and witnesses in scan
    order.

    Monotonicity, for any ``combine``: table[i][j] <= table[k][l] for
    every i <= k and j <= l iff every row and every column of the table
    is nondecreasing, since then table[i][j] <= table[i][l] <=
    table[k][l]. The rows and columns are read in O(grid**2); the
    O(grid**4) scan over ascending pairs runs only when they fail, to name
    the witnesses. A NaN fails every comparison and breaks that
    transitivity, so a table holding one fails the test and is scanned.

    Associativity, for a ``TNorm`` itself (not a subclass, nor any other
    object): the two sides of each of the grid**3 checks lie within
    ``_ASSOC_TOL`` of each other for every grade in [0, 1], so the law
    passes with no call. Minimum returns one of its arguments and is
    exact. Each product rounds once, to within a relative 2**-53, so both
    sides lie within (1 + 2**-53)**2 - 1 of abc and within 4 * 2**-53 of
    each other (subnormal results err by 2**-1075 at most). Lukasiewicz
    returns a unit argument as it is; otherwise fl(a + b) - 1.0 is exact
    by Sterbenz when fl(a + b) >= 0.5, and below 0.5 both it and the
    exact a + b - 1 are negative and clamp to 0. So each call lies within
    2**-52 of the exact max(0, a + b - 1), which is 1-Lipschitz in each
    argument: a side lies within 2**-51 of the exact, associative value
    and the two sides within 2**-50 of each other. All three bounds lie
    below 1e-15, and grades of a built-in norm never leave [0, 1], so the
    skipped calls raise nothing.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    levels = [i / (grid - 1) for i in range(grid)]
    combine, laws = norm.combine, []
    table = [[combine(a, b) for b in levels] for a in levels]

    comm = [(levels[i], levels[j]) for i in range(grid) for j in range(grid) if table[i][j] != table[j][i]]
    laws.append(LawCheck.of("commutativity", grid * grid, comm, _WITNESS_CAP))

    assoc = []
    if type(norm) is not TNorm:
        for i, a in enumerate(levels):
            for j, b in enumerate(levels):
                ab, row_b = table[i][j], table[j]
                for k, c in enumerate(levels):
                    if abs(combine(ab, c) - combine(a, row_b[k])) > _ASSOC_TOL:
                        assoc.append((a, b, c))
    laws.append(LawCheck.of("associativity", grid ** 3, assoc, _WITNESS_CAP))

    unit = [(a,) for a in levels if combine(a, 1.0) != a]
    laws.append(LawCheck.of("unit", grid, unit, _WITNESS_CAP))

    mono = []
    ascending = [(i, k) for i in range(grid) for k in range(i, grid)]
    lines = table + list(zip(*table))
    if not all(a <= b for line in lines for a, b in zip(line, line[1:])):
        for i, k in ascending:
            low, high = table[i], table[k]
            mono += [(levels[i], levels[j], levels[k], levels[l]) for j, l in ascending if low[j] > high[l]]
    laws.append(LawCheck.of("monotonicity", len(ascending) ** 2, mono, _WITNESS_CAP))

    # sup_{a<1} combine(a, a) == 1: evaluate along a ladder 1 - 2**-k.
    best = 0.0
    for k in range(1, 41):
        a = 1.0 - 2.0 ** -k
        best = max(best, combine(a, a))
    sup_fail = [] if best >= 1.0 - 1e-6 else [(best,)]
    laws.append(LawCheck.of("sup_diagonal", 40, sup_fail, _WITNESS_CAP))

    return Report(laws=tuple(laws))

