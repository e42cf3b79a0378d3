"""Modulus functions with vanishing iterates, and the iteration horizon.

An admissible modulus is nondecreasing, right-continuous, and its
iterates converge to zero from every start. Those three properties force
phi(t) < t for t > 0 and phi(0) = 0, and they keep the solver's stopping
horizon finite: for any target levels there is an N after which the
iterates stay below min(epsilon, lambda).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .errors import HorizonExceeded, InvalidK, PhiInvalid
from .report import LawCheck, Report

_WITNESS_CAP = 8

# Unit roundoff of a float: one rounding moves a value by at most this
# share of it.
_U = 2.0 ** -53
# Relative error of crossing_time against the exact crossing.
CROSSING_ERROR = 4 * _U


def crossing_time(d: float) -> float:
    """The unique t with t / (t + d) == 1 - t, in the closed form
    2 / (1 + sqrt(1 + 4 / d)), which does not cancel: its relative error
    stays within 4 units of 2**-53. Up to d = 1e-300, where 4 / d nears
    overflow, sqrt(d) is the crossing to the float.

    Strictly increasing and concave in d, with values in [0, 1).
    """
    if d > 1e-300:
        return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / d))
    if not d >= 0.0:
        raise ValueError("d must be nonnegative")
    return math.sqrt(d)


# The exact pair rules: a pair whose g-images lie d > 0 apart and whose
# f-images lie rho d apart passes iff phi(t) > tau(rho d) for all t > tau(d).
# Each modulus decides this on the rationals rho and d2 = d**2 through
# tau(d) <= c <=> d (1 - c) <= c**2 (0 <= c < 1), for the real modulus its
# parameters define. Roots left over are enclosed at these bit precisions.
_PRECISIONS = tuple(64 << i for i in range(7))


def _versus(d2, c) -> int:
    """The sign of tau(d) - c for rationals d2 = d**2 >= 0 and c."""
    if not 0 < c < 1:
        return -1 if c >= 1 else int(d2 > 0 or c < 0)
    lhs, rhs = d2 * (1 - c) ** 2, c ** 4
    return (lhs > rhs) - (lhs < rhs)


def _gap(c):
    """The distance d with tau(d) = c, where a rule on tau(d) <= c steps, for a
    rational c in (0, 1); else 0, where every verdict steps to the coincident one."""
    return c * c / (1 - c) if 0 < c < 1 else 0


def _root_bounds(q, bits: int):
    """Rationals lo <= sqrt(q) <= hi, equal where sqrt(q) is rational and
    else about 2**-bits of it apart, for a rational q > 0."""
    from fractions import Fraction

    n, m = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n == q.numerator and m * m == q.denominator:
        return Fraction(n, m), Fraction(n, m)
    s = max(bits - (q.numerator.bit_length() - q.denominator.bit_length()) // 2, 0)
    r = math.isqrt((q.numerator << 2 * s) // q.denominator)
    return Fraction(r, 1 << s), Fraction(r + 1, 1 << s)


def _tau_bounds(d, bits: int):
    """Rationals enclosing tau over the rational interval d = (lo, hi), lo >= 0."""
    return tuple(2 / (1 + _root_bounds(1 + 4 / x, bits)[i]) if x else x for x, i in zip(d, (1, 0)))


def _distance_bounds(d2, bits: int, normalize: bool):
    """Rationals enclosing d = sqrt(d2) for a rational d2 > 0, or under
    normalize 1 - exp(-d), from decimal exponentials rounded outward at
    about ``bits`` of precision."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context
    from fractions import Fraction

    lo, hi = _root_bounds(d2, bits)
    if not normalize:
        return lo, hi
    digits = (bits + max(lo.denominator.bit_length() - lo.numerator.bit_length(), 0)) * 3 // 10
    down, up = (Context(digits, rounding, MIN_EMIN, MAX_EMAX, traps=[]) for rounding in (ROUND_FLOOR, ROUND_CEILING))
    # exp rounds to nearest in every context, so one step outward bounds it.
    e_hi = up.next_plus(up.exp(up.divide(-lo.numerator, lo.denominator)))
    e_lo = down.next_minus(down.exp(down.divide(-hi.numerator, hi.denominator)))
    return Fraction(down.subtract(1, e_hi)), Fraction(up.subtract(1, e_lo))


def pair_passes(phi: PhiFunction, dg2, df2, normalize: bool) -> bool:
    """Whether a pair passes exactly, from the squares dg2 and df2 of its
    exact image distances before normalization, rationals. Coincident
    g-images pass iff the f-images coincide and phi is positive right of 0,
    which a table is not. Where rho = d_f / d_g is rational too, the
    modulus's rule decides. Else each distance is enclosed at doubling
    precision: a verdict rises with d_g and falls with d_f, so a pass at
    (d_g low, d_f high) passes, and a failure at (d_g high, d_f low) fails.
    A pair that no precision decides passes, as a tie does for a rising
    modulus."""
    if not dg2:
        return not df2 and not isinstance(phi, TablePhi)
    rho, high = _root_bounds(df2 / dg2, 0) if df2 else (0, 0)
    if not normalize and rho == high:  # rho = d_f / d_g is rational
        return phi.passes(rho, dg2)
    for bits in _PRECISIONS:
        (g_lo, g_hi), (f_lo, f_hi) = (_distance_bounds(q, bits, normalize) if q else (q, q) for q in (dg2, df2))
        if g_lo > 0 and phi.passes(f_hi / g_lo, g_lo * g_lo):
            return True
        if not phi.passes(f_lo / g_hi, g_hi * g_hi):
            return False
    return True


def _check_nonneg(t: float) -> None:
    if not t >= 0.0:
        raise ValueError("modulus argument must be nonnegative")


def _tie(x: float, slack: float) -> bool:
    """Whether the float orbit may cross the target on another step than the exact one.

    ``x`` is the real number of steps after which the exact orbit lies
    at or below the target, and ``slack`` bounds how far rounding, in the
    float orbit and in computing ``x``, can move that crossing. With no
    integer within ``slack`` of ``x``, ceil(x) is the float orbit's count
    too. Once ``slack`` reaches half a step (the rational modulus past
    about 3e7 steps) no bound can pick the float orbit's step, and the
    exact count stands.
    """
    return slack < 0.5 and abs(x - round(x)) <= slack


@dataclass(frozen=True)
class LinearPhi:
    """t -> k * t with ratio k in (0, 1)."""

    k: float

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise InvalidK(f"linear ratio must lie in (0, 1), got {self.k!r}")

    def eval(self, t: float) -> float:
        _check_nonneg(t)
        return self.k * t

    def steps_to(self, t: float, target: float) -> Optional[int]:
        """Least n with iterate(self, t, n) <= target < t, or None on a tie.

        The n-th iterate is t * k**n; each float step rounds once.
        """
        log_t, log_target, log_k = math.log(t), math.log(target), math.log(self.k)
        x = (log_target - log_t) / log_k
        slack = 4 * _U * (x + 2.0 + abs(log_t) + abs(log_target)) * (1.0 - 1.0 / log_k)
        return None if _tie(x, slack) else math.ceil(x)

    def passes(self, rho, d2) -> bool:
        """The exact pair rule at distances d = sqrt(d2) > 0 and rho d, for
        rationals rho and d2: k tau(d) >= tau(rho d) iff rho < k and tau(d)
        <= (k**2 - rho) / (k (k - rho))."""
        from fractions import Fraction

        k = Fraction(self.k)
        return rho < k and _versus(d2, (k * k - rho) / (k * (k - rho))) <= 0

    def cuts(self, rho) -> list:
        """The distances d > 0 at which ``passes(rho, d**2)`` may step."""
        from fractions import Fraction

        k = Fraction(self.k)
        return [_gap((k * k - rho) / (k * (k - rho)))] if rho < k else []


@dataclass(frozen=True)
class RationalPhi:
    """t -> t / (1 + t); the n-th iterate is t / (1 + n*t)."""

    def eval(self, t: float) -> float:
        _check_nonneg(t)
        return t / (1.0 + t)

    def steps_to(self, t: float, target: float) -> Optional[int]:
        """Least n with iterate(self, t, n) <= target < t, or None on a tie.

        The n-th iterate is 1 / (1/t + n). A float step rounds 1/iterate
        by up to 2 * _U * (1/iterate + 1), which adds up over n steps.
        """
        x = 1.0 / target - 1.0 / t
        slack = 4 * _U * (x + 2.0) * (1.0 / target + 2.0)
        if _tie(x, slack):
            return None
        # ceil(1/target - 1/t) in integers, since 1/target overflows a
        # float below about 5.6e-309.
        p, q = target.as_integer_ratio()
        a, b = t.as_integer_ratio()
        return -((b * p - q * a) // (p * a))

    def passes(self, rho, d2) -> bool:
        """As ``LinearPhi.passes``: tau(d) / (1 + tau(d)) >= tau(rho d) iff
        rho < 1 and tau(d) <= (1 - rho) / (1 + rho)."""
        return rho < 1 and _versus(d2, (1 - rho) / (1 + rho)) <= 0

    def cuts(self, rho) -> list:
        """As ``LinearPhi.cuts``."""
        return [_gap((1 - rho) / (1 + rho))]


@dataclass(frozen=True)
class InducedPhi:
    """Threshold-conjugate modulus for the standard fuzzy metric.

    Maps the crossing time of a metric gap d to the crossing time of the
    contracted gap k * d, for gaps up to the diameter ``cap``; beyond the
    cap's crossing time it continues linearly with slope k. By
    construction eval(crossing_time(d)) == crossing_time(k * d) for
    d <= cap, so a plain metric k-contraction on a space of diameter
    <= cap satisfies the transformed-contraction implication with this
    modulus. The metric modulus k itself does not transfer: the
    antecedent bounds the metric gap by t only for t <= 1/2.
    """

    k: float
    cap: float
    tau_cap: float = field(init=False, repr=False)
    anchor: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise InvalidK(f"ratio must lie in (0, 1), got {self.k!r}")
        if not self.cap > 0.0:
            raise ValueError("cap must be positive")
        tau_cap = crossing_time(self.cap)
        if not tau_cap < 1.0:
            # eval divides by 1 - t on [0, tau_cap].
            raise ValueError(f"cap {self.cap!r} is too large: its crossing time rounds to 1")
        object.__setattr__(self, "tau_cap", tau_cap)
        object.__setattr__(self, "anchor", crossing_time(self.k * self.cap))

    def eval(self, t: float) -> float:
        _check_nonneg(t)
        if t == 0.0:
            return 0.0
        if t <= self.tau_cap:
            return crossing_time(self.k * t * t / (1.0 - t))
        return self.anchor + self.k * (t - self.tau_cap)

    def steps_to(self, t: float, target: float) -> Optional[int]:
        """Least n with iterate(self, t, n) <= target < t, or None on a tie
        or on the linear tail above ``tau_cap``.

        Below ``tau_cap``, t = crossing_time(d) for d = t**2 / (1 - t), and
        the n-th iterate is crossing_time(k**n * d), which reaches target
        once k**n * d <= target**2 / (1 - target). A float step moves d by
        a relative error that grows with ``cap``, where 1 - t shrinks.
        """
        if t > self.tau_cap:
            return None
        log_d = 2.0 * math.log(t) - math.log1p(-t)
        log_target = 2.0 * math.log(target) - math.log1p(-target)
        log_k = math.log(self.k)
        x = (log_target - log_d) / log_k
        slack = 8 * _U * (x + 2.0 + abs(log_d) + abs(log_target)) * (
            1.0 - (5.0 + self.cap) ** 2 / log_k
        )
        return None if _tie(x, slack) else math.ceil(x)

    def passes(self, rho, d2) -> bool:
        """As ``LinearPhi.passes``: up to the cap phi(tau(d)) = tau(k d), so
        iff rho <= k; past it iff tau(rho d) <= tau(k cap) + k (tau(d) -
        tau(cap)), on enclosures at doubling precision, where a tie that no
        precision resolves passes, as for any strictly rising modulus."""
        from fractions import Fraction

        k, cap = Fraction(self.k), Fraction(self.cap)
        if d2 <= cap * cap:
            return rho <= k
        for bits in _PRECISIONS:
            d = _root_bounds(d2, bits)
            (g_lo, g_hi), (c_lo, c_hi), (kc_lo, kc_hi) = (_tau_bounds(x, bits) for x in (d, (cap, cap), (k * cap,) * 2))
            f_lo, f_hi = _tau_bounds((rho * d[0], rho * d[1]), bits)
            if f_hi <= kc_lo + k * (g_lo - c_hi):
                return True
            if f_lo > kc_hi + k * (g_hi - c_lo):
                return False
        return True

    def cuts(self, rho) -> list:
        """As ``LinearPhi.cuts`` up to the cap, where the rule changes; past
        it the rule compares enclosed roots, and its steps are not listed."""
        return [self.cap]


@dataclass(frozen=True)
class TablePhi:
    """Right-continuous step function given by (t, value) breakpoints.

    The value at a breakpoint is the new step value (taken from the
    right), which makes right-continuity structural. Before the first
    breakpoint the value is 0; after the last it stays constant. Nothing
    here forces admissibility: verify_phi_class reports violations.
    """

    points: Tuple[Tuple[float, float], ...]
    _ts: Tuple[float, ...] = field(init=False, repr=False)
    _values: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.points)
        if not pts:
            raise ValueError("table modulus needs at least one breakpoint")
        ts = tuple(t for t, _ in pts)
        if any(not t >= 0.0 for t in ts):
            raise ValueError("breakpoint times must be nonnegative")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(not v >= 0.0 for _, v in pts):
            raise ValueError("breakpoint values must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_values", tuple(v for _, v in pts))

    def eval(self, t: float) -> float:
        _check_nonneg(t)
        i = bisect.bisect_right(self._ts, t) - 1
        return self._values[i] if i >= 0 else 0.0

    def steps_to(self, t: float, target: float) -> Optional[int]:
        """None: a step function has no closed form, so horizon steps its orbit."""
        return None

    def passes(self, rho, d2) -> bool:
        """As ``LinearPhi.passes``: right of tau(d) phi stays at the value v
        of the last breakpoint at or below tau(d), and a pair passes iff
        tau(rho d) < v, strictly. The breakpoints rise, so one bisect finds it."""
        from fractions import Fraction

        i = bisect.bisect_right(self._ts, 0, key=lambda t: -_versus(d2, Fraction(t)))
        return _versus(rho * rho * d2, Fraction(self._values[i - 1] if i else 0.0)) < 0

    def cuts(self, rho) -> list:
        """As ``LinearPhi.cuts``: where tau(d) meets a breakpoint, or tau(rho d) a value."""
        from fractions import Fraction

        return [_gap(Fraction(t)) for t in self._ts] + [_gap(Fraction(v)) / rho for v in self._values if rho]


PhiFunction = Union[LinearPhi, RationalPhi, InducedPhi, TablePhi]


def iterate(phi: PhiFunction, t: float, n: int) -> float:
    """n-fold application of ``phi.eval`` starting from t."""
    _check_nonneg(t)
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    value = t
    for _ in range(n):
        value = phi.eval(value)
    return value


def horizon(phi: PhiFunction, t0: float, epsilon: float, lam: float) -> int:
    """Least N with iterate(phi, t0, N) <= min(epsilon, lam), decided exactly.

    Linear, rational and induced moduli count the steps in closed form
    (``steps_to``); the induced modulus first steps down its linear tail
    above ``tau_cap``. On a tie, where rounding could put the float
    orbit's crossing on another step, the orbit is stepped until the
    closed form decides. A table's orbit takes its values among the
    breakpoint values, so it reaches the target within len(points) + 1
    steps or cycles above it for ever.

    Raises HorizonExceeded when the iterates never reach the target (an
    inadmissible table).
    """
    if not t0 > 0.0:
        raise ValueError("t0 must be positive")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    target = min(epsilon, lam)
    value = t0
    n = 0
    while value > target:
        steps = phi.steps_to(value, target)
        if steps is not None:
            n += steps
            break
        if isinstance(phi, TablePhi) and n > len(phi.points):
            raise HorizonExceeded(f"iterates cycle above {target!r}")
        value = phi.eval(value)
        n += 1
    return n


def verify_phi_class(phi: PhiFunction, grid: int = 16, t_max: float = 2.0) -> Report:
    """Decide admissibility on (0, t_max] exactly.

    Laws: ``nondecreasing``, ``below_identity`` (phi(t) < t, and
    phi(0) = 0) and ``iterates_vanish``. Linear, rational and induced
    moduli satisfy all three by construction once their parameters
    validate. A table is judged from its breakpoints up to t_max: values
    must not decrease, each must lie below its time or be 0 at time 0,
    and the orbit of each value must reach 0 and stay there. An orbit
    takes its values among the breakpoint values, so it reaches 0 within
    len(points) + 1 steps or never. Witnesses are breakpoints: (t,
    t_next, value, value_next) for a drop, (t, value) for a value not
    below its time, (t, value, steps) for an orbit that does not settle
    at 0.

    ``checks`` counts a report grid of ``grid`` points on (0, t_max]
    (grid - 1 adjacent pairs, grid points, one orbit), so the shape of a
    report does not depend on how its laws were decided.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    drops, above, stalled = [], [], []
    if isinstance(phi, TablePhi):
        pts = [(t, v) for t, v in phi.points if t <= t_max]
        drops = [(t, t2, v, v2) for (t, v), (t2, v2) in zip(pts, pts[1:]) if v2 < v]
        above = [(t, v) for t, v in pts if not (v < t or t == v == 0.0)]
        for t, v in pts:
            value, steps = v, 1
            while value > 0.0 and steps <= len(phi.points):
                value = phi.eval(value)
                steps += 1
            if value > 0.0:
                stalled.append((t, value, steps))
        at_zero = phi.eval(0.0)
        if at_zero > 0.0:
            # 0 is not fixed, so an orbit that reaches it moves on.
            stalled.append((0.0, at_zero, 1))

    laws = (
        LawCheck.of("nondecreasing", grid - 1, drops, _WITNESS_CAP),
        LawCheck.of("below_identity", grid, above, _WITNESS_CAP),
        LawCheck.of("iterates_vanish", 1, stalled, _WITNESS_CAP),
    )
    return Report(laws=laws)


def ensure_phi_class(phi: PhiFunction, t_max: float = 2.0) -> None:
    """Raise PhiInvalid unless ``phi`` passes verify_phi_class."""
    report = verify_phi_class(phi, t_max=t_max)
    if not report.passed:
        raise PhiInvalid(f"modulus failed admissibility checks: {', '.join(report.failures())}")
