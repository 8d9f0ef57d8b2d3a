"""Certificate reports shared by the diagnostics and the verifiers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .scalars import Scalar, format_scalar


def _render(value, mode: str):
    """Scalars as canonical strings; containers recursively; rest verbatim."""
    if isinstance(value, (dict,)):
        return {str(k): _render(v, mode) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v, mode) for v in value]
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    return format_scalar(value, mode)


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
            "values": _render(self.values, mode),
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
            "parameters": _render(self.parameters, mode),
            "witnesses": _render(self.witnesses, mode),
            "checks": [c.to_json(mode) for c in self.checks],
            "overall": self.overall,
            "slack": None if slack is None else format_scalar(slack, mode),
        }

    def dumps(self, mode: str = "exact") -> str:
        return json.dumps(self.to_json(mode), indent=2, sort_keys=True)
