"""Verification reports shared by every check_* operation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import RMatrix, rat_str


def _render(value):
    if isinstance(value, (int, Fraction)):
        return rat_str(value)
    if isinstance(value, (list, tuple)):
        flat = all(isinstance(v, (int, Fraction)) for v in value)
        if flat and len(value) > 16:
            nz = {str(i): rat_str(v) for i, v in enumerate(value) if v}
            return {"length": len(value), "nonzero": nz}
        return [_render(v) for v in value]
    return value


def first_violation(pairs) -> list:
    """The first (location, residual) pair whose residual vector is
    nonzero, as a one-element violation list; [] when there is none.

    Sweeps pass a generator, so nothing after the first failure is
    evaluated.
    """
    for loc, resid in pairs:
        if any(resid):
            return [(loc, resid)]
    return []


def grid_violations(m: RMatrix) -> list:
    """Every nonzero cell ((row, col), entry) of a matrix residual."""
    return [((i, j), row[j]) for i, row in enumerate(m.entries) for j in sorted(row)]


@dataclass
class CheckResult:
    """Outcome of a single named condition.

    violations holds (location, residual) pairs; sweeps that stop at the
    first failure keep exactly one, grid checks may list every bad cell.
    """

    name: str
    passed: bool
    violations: list = field(default_factory=list)

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        first = self.first_violation
        return {
            "name": self.name,
            "passed": self.passed,
            "location": list(first[0]) if first else None,
            "residual": _render(first[1]) if first else None,
        }


@dataclass
class CheckReport:
    name: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, violations: list) -> CheckResult:
        res = CheckResult(name, not violations, violations)
        self.checks.append(res)
        return res

    def add_pass(self, name: str) -> CheckResult:
        return self.add(name, [])

    def extend(self, other: "CheckReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed, c.violations))

    def result(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
