"""Certificate reports shared by the diagnostics and the verifiers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .scalars import Scalar, format_scalar


def render(value, mode: str):
    """The JSON form of an exact value under mode ("exact" or "float"):
    Fractions as :func:`scalars.format_scalar` strings, a certificate report
    by its :meth:`CertificateReport.to_json`, containers recursively (keys
    as strings), anything else verbatim."""

    # the recursion stays inside, so a wrapper around render sees one call per value
    def walk(v):
        if isinstance(v, Fraction):
            return format_scalar(v, mode)
        if isinstance(v, dict):
            return {str(k): walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        if isinstance(v, CertificateReport):
            return v.to_json(mode)
        return v

    return walk(value)


@dataclass(frozen=True)
class CheckRecord:
    """One verified relation, with the raw values it was recomputed from."""

    description: str
    relation: str  # e.g. "lhs >= rhs", rendered for the reader
    values: dict
    passed: bool
    slack: Optional[Scalar] = None

    def to_json(self, mode: str = "exact") -> dict:
        return {
            "description": self.description,
            "relation": self.relation,
            "values": render(self.values, mode),
            "pass": self.passed,
            "slack": None if self.slack is None else format_scalar(self.slack, mode),
        }


@dataclass
class CertificateReport:
    """Named bundle of checks; overall holds iff every check passed."""

    name: str
    parameters: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)

    def add(self, description, relation, values, passed, slack=None) -> bool:
        self.checks.append(
            CheckRecord(
                description=description,
                relation=relation,
                values=dict(values),
                passed=bool(passed),
                slack=slack,
            )
        )
        return bool(passed)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def min_slack(self) -> Optional[Scalar]:
        slacks = [c.slack for c in self.checks if c.slack is not None]
        return min(slacks) if slacks else None

    def failing(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json(self, mode: str = "exact") -> dict:
        slack = self.min_slack
        return {
            "claim": self.name,
            "parameters": render(self.parameters, mode),
            "witnesses": render(self.witnesses, mode),
            "checks": [c.to_json(mode) for c in self.checks],
            "overall": self.overall,
            "slack": None if slack is None else format_scalar(slack, mode),
        }

    def dumps(self, mode: str = "exact") -> str:
        return json.dumps(self.to_json(mode), indent=2, sort_keys=True)
