"""Machine-readable verification reports.

A report is a list of named check records plus run metadata. The digest
covers everything except wall time and the timestamp, so identical inputs
and seeds produce identical digests; FAIL anywhere makes the exit code 1.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"
UNCONVERGED = "UNCONVERGED"

GUARD = 1e-9  # the float guard on an inequality slack decided in floats


def guard_status(slack: float) -> str:
    """PASS iff a float slack is at least -GUARD; FAIL otherwise, NaN too."""
    return PASS if slack >= -GUARD else FAIL


@dataclass
class CheckRecord:
    name: str
    status: str
    lhs: float | str | None = None
    rhs: float | str | None = None
    slack: float | str | None = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        for key in ("lhs", "rhs", "slack"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.note:
            out["note"] = self.note
        return out


def record_bound(name: str, lhs, rhs, *, tol: float = GUARD,
                 note: str = "") -> CheckRecord:
    """slack = rhs - lhs; FAIL iff slack < -tol."""
    slack = rhs - lhs
    status = PASS if slack >= -tol else FAIL
    return CheckRecord(name, status, lhs, rhs, slack, note)


def record_equal(name: str, lhs, rhs, *, tol: float = 0.0,
                 note: str = "") -> CheckRecord:
    if isinstance(lhs, float) or isinstance(rhs, float):
        ok = abs(lhs - rhs) <= tol
        slack = abs(lhs - rhs)
    else:
        ok = lhs == rhs
        slack = None
    return CheckRecord(name, PASS if ok else FAIL, str(lhs), str(rhs),
                       slack, note)


@dataclass
class VerificationReport:
    command: str
    argv: list[str] = field(default_factory=list)
    records: list[CheckRecord] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    inputs_digest: str = ""
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    generated_at: float = field(default_factory=time.time)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def extend(self, records) -> None:
        self.records.extend(records)

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.records)

    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def stable_dict(self) -> dict:
        """Everything the digest covers (no timestamps, no wall time)."""
        return {
            "command": self.command,
            "argv": self.argv,
            "records": [r.to_dict() for r in self.records],
            "seeds": self.seeds,
            "inputs_digest": self.inputs_digest,
            "versions": self.versions,
        }

    def digest(self) -> str:
        payload = json.dumps(self.stable_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        out = self.stable_dict()
        out["digest"] = self.digest()
        out["volatile"] = {"wall_time_s": self.wall_time_s,
                           "generated_at": self.generated_at}
        return out

    def render_table(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.records), default=4)
        for r in self.records:
            parts = [f"{r.name:<{width}}  {r.status:<11}"]
            if r.lhs is not None:
                parts.append(f"lhs={_fmt(r.lhs)}")
            if r.rhs is not None:
                parts.append(f"rhs={_fmt(r.rhs)}")
            if r.slack is not None:
                parts.append(f"slack={_fmt(r.slack)}")
            if r.note:
                parts.append(f"({r.note})")
            lines.append("  ".join(parts))
        n_fail = sum(r.status == FAIL for r in self.records)
        lines.append(f"{len(self.records)} checks, {n_fail} failures")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
