"""Failure oracles for unstable kernels.

Six families decide whether a kernel execution failed:

1. NaN/inf detection on the output,
2. out-of-range check against known output bounds,
3. comparison with a rewritten (algebraically equal, numerically stable) form,
4. comparison with a stable algorithm (e.g. Cholesky-based inverse),
5. consistency with an independent reference implementation,
6. re-execution at increased floating-point width.

Types 3-5 are one check: the kernel's forward against the counterpart its
op table row names (kernels.OpDef.counterpart), on the same operands. They
differ only in the failure class and the precision: a rewrite runs in
single precision, a stable algorithm and a reference in double. A
counterpart with a domain marks the rows outside it, which pass that oracle.

A kernel's registry entry binds it to some of these families. The one
entry point, oracle_rows, runs a kernel's bound oracles in registry order
over a stack of executions, one row per sample, and reports for each row
the first failing oracle and its detail; a single execution is a stack of
one. It takes the params the executions ran the kernel with, so a verdict
judges the computation the program made. The families themselves are
internal row checks with no entry point of their own. The registry makes
every executable kernel bind some oracle that judges every row.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from safuzz.kernels import OpDef, apply_forward, op_def
from safuzz.registry import Registry, default_registry

log = logging.getLogger(__name__)


class FailureClass(enum.Enum):
    NAN_OR_INF = "NaNorINF"
    OUT_OF_RANGE = "OutOfRange"
    REWRITE_MISMATCH = "RewriteMismatch"
    STABLE_ALGO_MISMATCH = "StableAlgoMismatch"
    REFERENCE_MISMATCH = "ReferenceMismatch"
    WIDTH_MISMATCH = "WidthMismatch"


@dataclass(frozen=True)
class OracleVerdict:
    """One execution's verdict: the class of the first failing oracle, None
    when every oracle passed, and that failure's detail."""

    failure_class: Optional[FailureClass] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failure_class is None

    @property
    def status(self) -> str:
        return "Pass" if self.passed else "Fail"


class _CheckRows(NamedTuple):
    """One oracle's outcome over a stack of executions: passed marks the rows
    it does not fail, and describe(row) renders the detail of a failed row."""

    failure_class: FailureClass
    passed: np.ndarray
    describe: Callable[[int], str]


def _cast(inputs: Sequence[np.ndarray], dtype) -> Sequence[np.ndarray]:
    for x in inputs:
        if x.dtype != dtype:
            break
    else:
        return inputs
    with np.errstate(all="ignore"):  # a value beyond float32 range becomes inf: data
        return [x.astype(dtype) for x in inputs]


def _first_true(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def _as_rows(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).reshape(len(a), -1)


def _compare(a: np.ndarray, b: np.ndarray, tolerance: float,
             relative: bool = False) -> tuple[np.ndarray, Callable[[int], str]]:
    """The rows where two stacks agree, and the description of the first
    mismatch in a row where they do not.

    Non-finite values agree only when both sides are NaN or infinities of the
    same sign; otherwise they count as a mismatch regardless of tolerance,
    and are reported before any finite difference beyond tolerance. For a
    finite, non-negative tolerance that is: an element agrees when its
    difference is within tolerance (never true of a difference involving
    inf or NaN), or both sides are equal or both NaN.
    """
    a, b = _as_rows(a), _as_rows(b)
    with np.errstate(all="ignore"):
        diff = np.abs(a - b)
        if relative:
            diff = diff / np.maximum(1.0, np.abs(b))
        agree = (diff <= tolerance) | (a == b) | (np.isnan(a) & np.isnan(b))

    def describe(row: int) -> str:
        off = ~agree[row]
        finite = np.isfinite(a[row]) & np.isfinite(b[row])
        off_nonfinite = off & ~finite
        i = _first_true(off_nonfinite if np.count_nonzero(off_nonfinite) else off)
        detail = f"element {i}: {a[row, i]!r} vs {b[row, i]!r}"
        if finite[i]:
            detail += f" (delta {diff[row, i]:.3e} > {tolerance:.1e})"
        return detail

    return agree.all(axis=1), describe


# ---------------------------------------------------------------------------
# oracle type 1: NaN/inf detection
# ---------------------------------------------------------------------------

def _nan_inf_rows(output: np.ndarray) -> _CheckRows:
    values = output.reshape(len(output), -1)

    def describe(row: int) -> str:
        i = _first_true(~np.isfinite(values[row]))
        return f"element {i} is {values[row, i]!r}"

    return _CheckRows(FailureClass.NAN_OR_INF, np.isfinite(values).all(axis=1), describe)


# ---------------------------------------------------------------------------
# oracle type 2: out-of-range check
# ---------------------------------------------------------------------------

def _range_rows(output: np.ndarray, lo: float, hi: float) -> _CheckRows:
    values = _as_rows(output)
    inside = (values >= lo) & (values <= hi)  # NaN lands outside

    def describe(row: int) -> str:
        i = _first_true(~inside[row])
        return f"element {i} = {values[row, i]!r} outside [{lo}, {hi}]"

    return _CheckRows(FailureClass.OUT_OF_RANGE, inside.all(axis=1), describe)


# ---------------------------------------------------------------------------
# oracle types 3-5: comparison with the kernel's counterpart
# ---------------------------------------------------------------------------

# oracle type -> the class of its failures and the dtype both sides run in.
# A rewrite (3) shares the kernel's single precision, so a mismatch isolates
# the formula; a stable algorithm (4) and a reference (5) run in double, so it
# isolates the algorithm, not rounding.
COUNTERPART_CHECKS = {
    3: (FailureClass.REWRITE_MISMATCH, np.float32),
    4: (FailureClass.STABLE_ALGO_MISMATCH, np.float64),
    5: (FailureClass.REFERENCE_MISMATCH, np.float64),
}


def _counterpart_rows(kind: int, op: OpDef, params: Mapping,
                      inputs: Sequence[np.ndarray], tolerance: float) -> _CheckRows:
    """Compare the kernel's forward with op.counterpart on the same operands.

    A counterpart with a domain (Cholesky's SPD matrices) returns its mask
    with the values; a row outside it passes (logged).
    """
    failure_class, dtype = COUNTERPART_CHECKS[kind]
    inputs = _cast(inputs, dtype)
    with np.errstate(all="ignore"):
        b = op.counterpart(*inputs)
    if not isinstance(b, tuple):
        return _CheckRows(failure_class, *_compare(
            apply_forward(op, params, inputs, dtype), b, tolerance))
    b, inside = b
    if not inside.all():
        log.debug("oracle %d unavailable for %s on %d of %d rows", kind, op.name,
                  np.count_nonzero(~inside), len(inside))
        if not inside.any():  # nothing to compare: skip the forward
            return _CheckRows(failure_class, ~inside, str)
    agree, describe = _compare(apply_forward(op, params, inputs, dtype), b, tolerance)
    return _CheckRows(failure_class, agree | ~inside, describe)


# ---------------------------------------------------------------------------
# oracle type 6: increased floating-point width
# ---------------------------------------------------------------------------

WIDTH_ORACLE = 6  # the one oracle that reads operands from a double-precision shadow


def _width_rows(op: OpDef, params: Mapping, inputs: Sequence[np.ndarray],
                tolerance: float) -> _CheckRows:
    single = apply_forward(op, params, _cast(inputs, np.float32), np.float32)
    double = apply_forward(op, params, _cast(inputs, np.float64), np.float64)
    if op.width_absolute:
        # round the wide result to the comparison scale before differencing
        found = _compare(single, double.astype(np.float32), tolerance)
    else:
        found = _compare(single, double, tolerance, relative=True)
    return _CheckRows(FailureClass.WIDTH_MISMATCH, *found)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

class OracleRows(NamedTuple):
    """Verdicts of a kernel's oracles over a stack of executions, by row."""

    checks: tuple[_CheckRows, ...]  # each oracle that ran, in registry order
    passed: np.ndarray  # the rows every check passed

    def verdict(self, row: int) -> OracleVerdict:
        for check in self.checks:
            if not check.passed[row]:
                return OracleVerdict(check.failure_class, check.describe(row))
        return OracleVerdict()


def oracle_rows(name: str, params: Mapping, inputs: Sequence[np.ndarray],
                registry: Optional[Registry] = None,
                wide_inputs: Optional[Callable[[], Sequence[np.ndarray]]] = None) -> OracleRows:
    """Run the kernel's bound oracles in registry order over a stack of
    executions; in each row the first Fail wins. name is an implemented
    kernel: a scanned site's, or one build_dataset checked.

    params are those the executions ran the kernel with. inputs are the
    operands stacked as (B, *shape), one row per execution, as the
    executions under test produced them; an operand with a single row
    broadcasts against the others. The increased-width oracle instead
    uses wide_inputs(), called only when that oracle runs: the operands as
    a double-precision shadow carries them (by default inputs, exact when
    they are double). A row outside an oracle's domain passes that oracle
    (logged). Once every row has failed, the remaining oracles do not run.
    """
    reg = registry or default_registry()
    spec = reg.get(name)
    op = op_def(name)
    checks = []
    passed = None  # rows no oracle has failed so far
    single_out = None
    for binding in spec.oracle_bindings:
        if passed is not None and not np.count_nonzero(passed):  # cheaper than passed.any()
            break
        kind = binding.type
        if kind <= 2 and single_out is None:
            single_out = apply_forward(op, params, _cast(inputs, np.float32), np.float32)
        if kind == 1:
            rows = _nan_inf_rows(single_out)
        elif kind == 2:
            rows = _range_rows(single_out, binding.lo, binding.hi)
        elif kind == WIDTH_ORACLE:
            rows = _width_rows(op, params, inputs if wide_inputs is None else wide_inputs(),
                               binding.tolerance)
        else:
            rows = _counterpart_rows(kind, op, params, inputs, binding.tolerance)
        checks.append(rows)
        passed = rows.passed if passed is None else passed & rows.passed
    return OracleRows(tuple(checks), passed)
