"""Every implemented kernel's oracle verdicts, row by row, pinned.

oracle_rows judges test_oracles.row_stack(kernel) for each implemented
kernel in two variants: float64 operands, and float32 operands with a
float64 wide_inputs shadow (as the fuzzer passes them). Each row's verdict
(passed, failure class, detail) is compared with
tests/data/oracle_verdicts.json. A change that alters a verdict on purpose
regenerates the file (`python tests/test_oracle_verdicts.py`) and says why.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_verdicts.json"
VARIANTS = ("float64", "float32_wide")

if __name__ == "__main__":
    sys.path[:0] = [str(GOLDEN.parents[1]), str(GOLDEN.parents[2] / "src")]

from safuzz.kernels import default_params, unit_operand_rows  # noqa: E402
from safuzz.oracles import oracle_rows  # noqa: E402
from test_oracles import IMPLEMENTED, row_stack  # noqa: E402


def verdict_rows(kernel: str, variant: str) -> list[list]:
    xs = row_stack(kernel)
    params = default_params(kernel, xs.shape[1:])
    wide = unit_operand_rows(kernel, xs)
    if variant == "float64":
        rows = oracle_rows(kernel, params, wide)
    else:
        with np.errstate(over="ignore"):
            narrow = [x.astype(np.float32) for x in wide]
        rows = oracle_rows(kernel, params, narrow, wide_inputs=lambda: wide)
    n = max(len(x) for x in wide)
    verdicts = [rows.verdict(i) for i in range(n)]
    return [[v.passed, v.failure_class and v.failure_class.value, v.detail]
            for v in verdicts]


def _golden_text() -> str:
    """One line per row, so a changed verdict shows as a one-line diff."""
    lines = ["{"]
    for vi, variant in enumerate(VARIANTS):
        lines.append(f" {json.dumps(variant)}: {{")
        for ki, kernel in enumerate(IMPLEMENTED):
            rows = [json.dumps(r) for r in verdict_rows(kernel, variant)]
            lines.append(f"  {json.dumps(kernel)}: [")
            lines.append(",\n".join("   " + r for r in rows))
            lines.append("  ]" + ("," if ki < len(IMPLEMENTED) - 1 else ""))
        lines.append(" }" + ("," if vi < len(VARIANTS) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


GOLDEN_ROWS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kernel", IMPLEMENTED)
def test_verdicts_match_golden(kernel, variant):
    assert verdict_rows(kernel, variant) == GOLDEN_ROWS[variant][kernel]


def test_golden_covers_every_kernel_and_family():
    assert all(sorted(GOLDEN_ROWS[v]) == sorted(IMPLEMENTED) for v in VARIANTS)
    failed = {row[1] for v in VARIANTS for rows in GOLDEN_ROWS[v].values() for row in rows}
    # the range oracle never fails first on these rows: every bounded kernel's
    # out-of-range rows are NaN, which the NaN/inf oracle reports before it
    assert failed == {None, "NaNorINF", "RewriteMismatch", "StableAlgoMismatch",
                      "ReferenceMismatch", "WidthMismatch"}


if __name__ == "__main__":
    GOLDEN.write_text(_golden_text())
    print(f"wrote {GOLDEN}")
