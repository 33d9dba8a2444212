"""Pass/fail manifests for reproduction scripts and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field


class ReproFailure(AssertionError):
    """First violated identity in a reproduction run, by name."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"check failed: {name}" + (f" ({detail})" if detail else ""))
        self.name = name
        self.detail = detail


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    mode: str = "exact"  # "exact" | "consequence"


@dataclass
class Report:
    name: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def require(self, name: str, condition: bool, detail: str, mode: str = "exact"):
        """Record a check; abort on the first violated identity."""
        self.checks.append(Check(name=name, passed=bool(condition), detail=detail, mode=mode))
        if not condition:
            raise ReproFailure(name, detail)

    def note(self, text: str):
        self.notes.append(text)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail, "mode": c.mode}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for c in self.checks:
            flag = "ok " if c.passed else "FAIL"
            lines.append(f"  {flag} {c.name}: {c.detail}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


SCOPE_NOTE = (
    "Full nef certification quantifies over all finite field extensions and is "
    "not decidable by finite computation; this report verifies the finitely many "
    "computable consequences (exact degrees, indices, norms, decompositions and "
    "norm-product bounds). This substitution is deliberate."
)
