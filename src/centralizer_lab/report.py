"""Check results and the aggregate report emitted by the verification
driver.  Wall times are informational and excluded from determinism
comparisons; everything else in a report is a pure function of the
configuration.

``skipped`` counts the samples a check skipped, by reason (an exception
type name or a check's own reject); ``error`` is ``"Type: message"`` of the
exception that failed a check, or None.  JSON writes a non-finite
``max_deviation`` as null."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .formats import fmt_float, json_float


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    samples: int
    skipped: dict
    error: str | None
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<40s} max_dev={self.max_deviation:<12.3e} "
                f"tol={self.tolerance:<9.1e} samples={self.samples:<5d} "
                f"skipped={sum(self.skipped.values()):<4d} ({self.seconds:.2f}s)"
                + ("" if self.error is None else f"  {self.error}"))


@dataclass(frozen=True)
class Report:
    config: dict
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [c.line() for c in self.checks]
        status = "PASS" if self.passed else "FAIL"
        out.append(f"{status}  {len(self.checks)} checks "
                   f"({sum(not c.passed for c in self.checks)} failing)")
        return out

    def to_json_obj(self) -> dict:
        checks = [{**vars(c), "max_deviation": json_float(c.max_deviation)}
                  for c in self.checks]
        return {"config": self.config, "checks": checks, "passed": self.passed}

    def to_csv(self) -> str:
        rows = [",".join(f.name for f in fields(CheckResult))]
        for c in self.checks:
            # the error cell holds the type only, since a message may hold a comma
            cells = {**vars(c), "skipped": sum(c.skipped.values()),
                     "error": (c.error or "").partition(":")[0]}
            rows.append(",".join(_csv_cell(value) for value in cells.values()))
        return "\n".join(rows) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt_float(value) if isinstance(value, float) else str(value)
