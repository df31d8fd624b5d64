"""Structured fuzzing reports.

Reports serialize to JSON with stable key order. Wall-clock fields all end in
"_seconds" and the header carries a "timestamp"; everything else is a pure
function of (programs, models, config, seed), so two runs with identical
seeds agree byte-for-byte once time-derived fields are masked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from safuzz import __version__
from safuzz.errors import FileFormatError
from safuzz.fuzzer import FuzzResult
from safuzz.jsonfields import FORMAT_VERSION

TIME_KEYS = ("timestamp",)
TIME_KEY_SUFFIX = "_seconds"


@dataclass
class ProgramReport:
    program: str
    seed: int
    expected_failure_class: Optional[str]
    results: list[FuzzResult] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class Report:
    registry_version: str
    config: dict
    programs: list[ProgramReport] = field(default_factory=list)

    def totals(self) -> dict:
        found = [r for p in self.programs for r in p.results if r.found]
        avg = sum(r.wall_time for r in found) / len(found) if found else 0.0
        return {"bugs_found": len(found),
                "bugs_found_by_search": sum(not r.found_at_init for r in found),
                "average_time_seconds": avg}


def quality_table(runs: dict[str, list[ProgramReport]]) -> list[dict]:
    """Each strategy's outcomes per (program, site node, strategy), sorted; an
    exhausted run counts in runs, never in iterations_to_found or its median."""
    outcomes: dict[tuple, list[FuzzResult]] = {}
    for strategy, reports in runs.items():
        for report in reports:
            for r in report.results:
                outcomes.setdefault((report.program, r.site.node_id, strategy), []).append(r)
    rows = []
    for (program, node, strategy), results in sorted(outcomes.items()):
        found = sorted(r.iterations for r in results if r.found)
        mid = len(found) // 2
        rows.append({
            "program": program, "node": node, "strategy": strategy, "runs": len(results),
            "found": len(found), "found_at_init": sum(r.found_at_init for r in results),
            "failed_at_init": sum(r.failed_at_init for r in results),
            "iterations_to_found": found,
            "median_iterations_to_found": (found[~mid] + found[mid]) / 2 if found else None})
    return rows


def _result_dict(result: FuzzResult) -> dict:
    doc = {
        "node": result.site.node_id,
        "kernel": result.site.kernel,
        "status": result.status,
        "found_at_init": result.found_at_init,
        "failure_class": result.verdict.failure_class.value if result.found else None,
        "detail": result.verdict.detail if result.found else "",
        "iterations": result.iterations,
        "sa_queries": result.iterations,  # guided results: one forest query an iteration
        "resets": result.resets,
        "wall_time_seconds": result.wall_time,
        "failing_input": result.failing_input,
        "diagnostics": result.diagnostics,
    }
    return doc


def report_to_dict(report: Report) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "registry_version": report.registry_version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": report.config,
        "programs": [
            {
                "program": p.program,
                "seed": p.seed,
                "expected_failure_class": p.expected_failure_class,
                "diagnostics": p.diagnostics,
                "sites": [_result_dict(r) for r in p.results],
            }
            for p in report.programs
        ],
        "totals": report.totals(),
    }


def report_emit(report: Report, path) -> dict:
    """Write the report as JSON; returns the emitted document."""
    doc = report_to_dict(report)
    path = Path(path)
    try:
        path.write_text(json.dumps(doc, indent=1) + "\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write report {path}: {exc}") from exc
    return doc


def strip_time_fields(doc):
    """Recursively drop timestamps and wall-clock fields (for comparisons)."""
    if isinstance(doc, dict):
        return {
            k: strip_time_fields(v)
            for k, v in doc.items()
            if k not in TIME_KEYS and not k.endswith(TIME_KEY_SUFFIX)
        }
    if isinstance(doc, list):
        return [strip_time_fields(v) for v in doc]
    return doc
