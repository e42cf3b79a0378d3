"""Verification reports: one entry per checked law, with witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class LawCheck:
    """Outcome of checking a single law on a sample or grid.

    ``witnesses`` holds counterexample tuples (law-specific shape, capped
    and in deterministic order); empty when the law passed.
    """

    name: str
    passed: bool
    checks: int
    witnesses: Tuple[tuple, ...] = field(default=())

    @classmethod
    def of(cls, name: str, checks: int, failures: list, cap: int) -> "LawCheck":
        """The law's outcome from its failures, in order; the first ``cap``
        become the witnesses."""
        return cls(name, not failures, checks, tuple(failures[:cap]))


@dataclass(frozen=True)
class Report:
    laws: Tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def law(self, name: str) -> LawCheck:
        for entry in self.laws:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def failures(self) -> Tuple[str, ...]:
        return tuple(law.name for law in self.laws if not law.passed)
