"""Uniform result records for every relation check.

A report says what was checked (id, kind, inputs), what happened
(status, residual_summary) and how to read it (expected): a check
whose residual is supposed to be nonzero, such as the deliberately
non-commuting pairs, reports status "fail" with expected "nonzero" and
still counts as ok.  Every report with ok False makes a run fail, so
its JSON form says "gating": true, a constant key of format_version 1.
"""

from __future__ import annotations

from typing import NamedTuple


class RelationReport(NamedTuple):
    id: str
    kind: str
    inputs: dict
    status: str  # "pass" (zero residual) | "fail" (nonzero residual)
    residual_summary: dict
    expected: str = "zero"  # "zero" | "nonzero"

    @property
    def ok(self) -> bool:
        return (self.status == "pass") == (self.expected == "zero")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "inputs": self.inputs,
            "status": self.status,
            "expected": self.expected,
            "ok": self.ok,
            "gating": True,
            "residual_summary": self.residual_summary,
        }


def residual_report(
    id: str,
    kind: str,
    inputs: dict,
    residual,
    max_weight=None,
    expected: str = "zero",
    lift=None,
) -> RelationReport:
    """Build a report from a residual operator.

    max_weight restricts the inspection to columns of that weight or
    less (used when a relation is only exact away from the truncation
    edge); the restriction is recorded in the summary.  lift, the
    residual's opalgebra.Lifted record, adds the columns computed and
    whether the quotient certificate held.
    """
    if max_weight is not None:
        leading = range(0, residual.basis.weight_block(max_weight).stop)
        residual = residual.restricted(leading)
    count, sample = residual.nonzero_in_columns()
    summary = {"nonzero_entries": count, "sample": sample}
    if max_weight is not None:
        summary["column_weight_limit"] = max_weight
    if lift is not None:
        summary["columns_computed"] = lift.columns
        summary["certificate_held"] = lift.certified
    return RelationReport(
        id=id,
        kind=kind,
        inputs=inputs,
        status="pass" if count == 0 else "fail",
        residual_summary=summary,
        expected=expected,
    )
