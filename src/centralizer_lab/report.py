"""Check results and the aggregate report emitted by the verification
driver.  Wall times are informational and excluded from determinism
comparisons; everything else in a report is a pure function of the
configuration.

``skipped`` counts the samples a check skipped, by reason (an exception
type name or a check's own reject); ``error`` is ``"Type: message"`` of the
exception that failed a check, or None.  JSON writes a non-finite
``max_deviation`` as null."""

from __future__ import annotations

from dataclasses import dataclass

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
        checks = [{
            "name": c.name,
            "max_deviation": json_float(c.max_deviation),
            "tolerance": c.tolerance,
            "passed": c.passed,
            "samples": c.samples,
            "skipped": c.skipped,
            "error": c.error,
            "seconds": c.seconds,
        } for c in self.checks]
        return {"config": self.config, "checks": checks, "passed": self.passed}

    def to_csv(self) -> str:
        header = ["name", "max_deviation", "tolerance", "passed", "samples", "skipped",
                  "error", "seconds"]
        rows = [",".join(header)]
        for c in self.checks:
            # the error cell holds the type only, since a message may hold a comma
            row = [c.name, fmt_float(c.max_deviation), fmt_float(c.tolerance),
                   "true" if c.passed else "false", str(c.samples),
                   str(sum(c.skipped.values())), (c.error or "").partition(":")[0],
                   fmt_float(c.seconds)]
            rows.append(",".join(row))
        return "\n".join(rows) + "\n"
