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


def crossing_time(d: float) -> float:
    """The unique t with t / (t + d) == 1 - t, in closed form.

    Strictly increasing and concave in d, with values in [0, 1).
    """
    if d < 0.0:
        raise ValueError("d must be nonnegative")
    return 0.5 * (math.sqrt(d * d + 4.0 * d) - d)


def _check_nonneg(t: float) -> None:
    if t < 0.0:
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

    def slack(self, t: float, value: float, dt: float) -> float:
        """Bound on phi(s) - value over real s <= t + dt, value = eval(t)."""
        return 2 * _U * value + self.k * dt


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

    def slack(self, t: float, value: float, dt: float) -> float:
        """As ``LinearPhi.slack``: two roundings, slope at most 1."""
        return 3 * _U * value + dt


@dataclass(frozen=True)
class InducedPhi:
    """Threshold-conjugate modulus for the standard fuzzy metric.

    Maps the crossing time of a metric gap d to the crossing time of the
    contracted gap k * d, for gaps up to the diameter ``cap``; beyond the
    cap's crossing time it continues linearly with slope k. By
    construction eval(crossing_time(d)) == crossing_time(k * d) for
    d <= cap, so a plain metric k-contraction on a space of diameter
    <= cap satisfies the transformed-contraction implication with this
    modulus.
    """

    k: float
    cap: float
    tau_cap: float = field(init=False, repr=False)
    anchor: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise InvalidK(f"ratio must lie in (0, 1), got {self.k!r}")
        if self.cap <= 0.0:
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
        a relative error that grows with ``cap``, where crossing_time
        cancels and 1 - t shrinks.
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

    def slack(self, t: float, value: float, dt: float) -> float:
        """As ``LinearPhi.slack``: crossing_time of a gap D cancels to about
        u * (D + 3) absolute, with D = k * t * t / (1 - t) below tau_cap, where
        the slope is at most 1 / (1 - t)**2, and D <= cap on the tail."""
        if t > self.tau_cap:
            return _U * (2.0 * self.cap + 6.0 + 4.0 * value) + self.k * dt
        gap = self.k * t * t / (1.0 - t)
        return _U * (2.0 * gap + 6.0 + 4.0 * value) + dt / (1.0 - t - dt) ** 2


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
        if any(t < 0.0 for t in ts):
            raise ValueError("breakpoint times must be nonnegative")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(v < 0.0 for _, v in pts):
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

    def slack(self, t: float, value: float, dt: float) -> float:
        """As ``LinearPhi.slack``: values are exact, so only steps count."""
        return self.eval(t + dt) - value


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


def horizon(
    phi: PhiFunction,
    t0: float,
    epsilon: float,
    lam: float,
    cap: Optional[int] = None,
) -> int:
    """Least N with iterate(phi, t0, N) <= min(epsilon, lam), decided exactly.

    Linear, rational and induced moduli count the steps in closed form
    (``steps_to``); the induced modulus first steps down its linear tail
    above ``tau_cap``. On a tie, where rounding could put the float
    orbit's crossing on another step, the orbit is stepped until the
    closed form decides. A table's orbit takes its values among the
    breakpoint values, so it reaches the target within len(points) + 1
    steps or cycles above it for ever.

    Raises HorizonExceeded when the iterates never reach the target (an
    inadmissible table), or when N exceeds an explicitly passed ``cap``.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    target = min(epsilon, lam)
    value = t0
    n = 0
    while value > target and (cap is None or n <= cap):
        steps = phi.steps_to(value, target)
        if steps is not None:
            n += steps
            break
        if isinstance(phi, TablePhi) and n > len(phi.points):
            raise HorizonExceeded(f"iterates cycle above {target!r}")
        value = phi.eval(value)
        n += 1
    if cap is not None and n > cap:
        raise HorizonExceeded(f"iterates still above {target!r} after {cap} steps")
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
    if t_max <= 0.0:
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
        raise PhiInvalid(
            f"modulus failed admissibility checks: {', '.join(report.failures())}",
            report=report,
        )
