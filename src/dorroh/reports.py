"""Check results with first-witness reporting.

Each named check records the first failing index tuple in lexicographic
order (never the full witness list) so golden outputs stay stable.
``Report.require`` is the one place a failed check becomes an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationFailure


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    checks: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if all(c.ok for c in self.checks) else "fail"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __bool__(self) -> bool:
        return self.ok

    def add(self, name, ok, witness=None, detail="") -> "Report":
        self.checks.append(CheckResult(name, ok, witness, detail))
        return self

    def add_witness(self, name, witness) -> "Report":
        """Record a check that fails exactly when it has a witness."""
        return self.add(name, witness is None, witness)

    def merge(self, other: "Report", prefix: str = "") -> "Report":
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.name if prefix else c.name, c.ok, c.witness, c.detail)
            )
        return self

    def require(self, message: str) -> "Report":
        """self when every check passed; otherwise raise ValidationFailure
        with ``message``, carrying self and so its first witness."""
        if not self.ok:
            raise ValidationFailure(self, message)
        return self

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def headline(self) -> str:
        bad = self.first_failure()
        if bad is None:
            return f"pass ({len(self.checks)} checks)"
        loc = f" at {bad.witness}" if bad.witness is not None else ""
        return f"fail: {bad.name}{loc}"

    def to_json(self) -> dict:
        passed = sum(1 for c in self.checks if c.ok)
        out = {
            "format": "dorroh-report/1",
            "status": self.status,
            "checks": [c.to_json() for c in self.checks],
            "summary": {"passed": passed, "failed": len(self.checks) - passed},
        }
        return out

    def render_text(self) -> str:
        lines = [self.headline()]
        for c in self.checks:
            mark = "ok" if c.ok else "FAIL"
            loc = f" witness={c.witness}" if (c.witness is not None and not c.ok) else ""
            det = f" ({c.detail})" if (c.detail and not c.ok) else ""
            lines.append(f"  [{mark}] {c.name}{loc}{det}")
        return "\n".join(lines)
