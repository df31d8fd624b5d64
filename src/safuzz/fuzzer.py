"""Soft-assertion guided search for failure-inducing inputs.

For each unstable site found in a program graph, the loop executes the
program to the site entry, asks the site's soft assertion how to transform
the entry values, and either validates a predicted failure with the oracles
or back-propagates the increase/decrease signal through the tape to mutate
the program inputs. Interval bounds accumulated from issued signals narrow
the search (history constraints); contradictory bounds reset element-wise.

Validation, in both loops, evaluates the program only as far as the site's
operands: the oracles run the site kernel on them, so the site node itself
is never evaluated on a tape.

When every op between the program inputs and the site entry has a VJP that
reads no operand value (autodiff.constant_gradient), the gradient of the
entry is the same at every input, and so are the deltas of each signal. Both
loops then compute them once per search, on the first step's tape, and keep
them read-only.

The random baseline walks a chunk of n steps as one (n + 1, *shape) stack
per program input: row 0 is the current value, row k the value after k
steps. With fixed deltas the walk is one running sum over the stack (a row
loop of add and clip where the input is clamped to its declared bounds),
with no forward or backward per step, and the chunk's rows are judged
through one stacked forward to the site's operands. Otherwise each step
makes one forward to the site's operands, whose tape serves both its
backward and its judging. Either way one oracle_rows call judges the chunk.
Values past the range of float32 or float64 are data in both loops, not
warnings.

Between resets a guided step is a pure function of the input values and the
interval bounds: it draws nothing from the generator. So once one step leaves
the bytes of every value and of both bound arrays unchanged, every later step
repeats it bit for bit, and `fuzz_site` counts the rest of the budget as run
and stops. Comparing bytes keeps -0.0 apart from 0.0 and NaN states exact;
the bounds are compared too, because after a contradiction resets an element
its value may repeat for one step while its bounds move. The wall-clock
timeout cannot fire inside the tail that is not run, so the result is what
any machine fast enough to finish the budget would give.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from safuzz.autodiff import (Tape, backward, constant_gradient, extend_tape, forward_eval,
                             forward_rows)
from safuzz.datagen import Signal, apply_scaling, featurize
from safuzz.errors import EvaluationError, UsageError
from safuzz.forest import Forest, predict
from safuzz.graph import Graph, Node
from safuzz.kernels import op_def
from safuzz.oracles import OracleVerdict, oracle_rows, run_oracles
from safuzz.registry import Registry, default_registry

log = logging.getLogger(__name__)

DEFAULT_INPUT_RANGE = (-10.0, 10.0)
WIDTH_ORACLE = 6  # the increased-width oracle, the only reader of the double shadow
GRAD_FLOOR = 1e-6  # smallest gradient magnitude a mutation step divides by
MAX_RESETS = 50  # mispredictions fuzz_site tolerates before giving up
CHUNK_CAP = 64  # most iterations random_fuzz_site judges in one oracle call


@dataclass(frozen=True)
class UnstableSite:
    node_id: str
    kernel: str
    entry_node: str  # producer of the operand the assertion inspects
    entry_shape: Optional[tuple[int, ...]]


@dataclass
class ScanResult:
    sites: list[UnstableSite]
    diagnostics: list[str]


@dataclass
class Bounds:
    """Per-element interval constraints accumulated from issued signals."""

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def unconstrained(shape: tuple[int, ...]) -> "Bounds":
        return Bounds(lower=np.full(shape, -np.inf), upper=np.full(shape, np.inf))


@dataclass(frozen=True)
class FuzzConfig:
    timeout: float = 1800.0
    rate: float = 1.0
    seed: int = 0
    max_iters: int = 5000  # deterministic budget; wall timeout stays the backstop

    def __post_init__(self):
        if not self.timeout > 0 or not self.rate > 0:
            raise UsageError("timeout and rate must be positive")
        if self.max_iters < 1:
            raise UsageError("max_iters must be at least 1")


@dataclass
class FuzzResult:
    site: UnstableSite
    status: str  # Found | Exhausted
    failing_input: Optional[dict[str, list]] = None
    verdict: Optional[OracleVerdict] = None
    iterations: int = 0
    wall_time: float = 0.0
    sa_queries: int = 0
    resets: int = 0
    diagnostics: list[str] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.status == "Found"

    @property
    def found_at_init(self) -> bool:
        """Found on the initial input, before any search step."""
        return self.found and self.iterations == 1


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def scan_for_unstable(graph: Graph, registry: Optional[Registry] = None) -> ScanResult:
    """Every node whose op matches a registry entry, in topological order.

    Registry matches without an executable implementation are reported as
    diagnostics: they cannot be fuzzed because no soft assertion exists.
    """
    reg = registry or default_registry()
    sites: list[UnstableSite] = []
    diagnostics: list[str] = []
    for node in graph.nodes:
        if node.op not in reg:
            continue
        spec = reg.get(node.op)
        if not spec.implemented:
            diagnostics.append(
                f"node '{node.id}': unstable function '{node.op}' is in the database "
                "but has no soft assertion available"
            )
            continue
        entry = node.inputs[op_def(node.op).primary]
        sites.append(
            UnstableSite(
                node_id=node.id,
                kernel=node.op,
                entry_node=entry,
                entry_shape=graph.shape_of(entry),
            )
        )
    return ScanResult(sites=sites, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# signal propagation and history-constrained updates
# ---------------------------------------------------------------------------

def propagate_signal(
    graph: Graph,
    site: UnstableSite,
    tape,
    signal: Signal,
    rate: float,
) -> dict[str, np.ndarray]:
    """Input adjustment per element: (signal sign * rate) / clamped gradient.

    The gradient is of the sum of the site-entry elements with respect to
    each program input; clamping keeps |g| >= GRAD_FLOOR with sign(0) := +1.
    """
    if signal is Signal.NO_CHANGE:
        raise UsageError("no-change signals do not propagate")
    seed = np.empty(tape.values[site.entry_node].shape)
    seed.fill(1.0)  # np.ones, without its Python-level wrapper
    grads = backward(graph, tape, site.entry_node, seed)
    s = 1.0 if signal is Signal.INCREASE else -1.0
    deltas: dict[str, np.ndarray] = {}
    for decl, g in zip(graph.inputs, grads):
        # out= keeps a 0-d clamp an array, which np.negative can write
        clamped = np.maximum(np.abs(g), GRAD_FLOOR, out=np.empty(g.shape))
        negative = g < 0
        if np.count_nonzero(negative):  # cheaper than a masked write of nothing
            np.negative(clamped, out=clamped, where=negative)
        deltas[decl.id] = (s * rate) / clamped
    return deltas


def _fixed_deltas(graph: Graph, site: UnstableSite, values: dict[str, np.ndarray],
                  rate: float) -> Optional[dict[Signal, dict[str, np.ndarray]]]:
    """The deltas of both signals, read-only, when the gradient of the site
    entry is the same at every input; propagate_signal runs on the tape of
    values, the search's first input. None when the gradient depends on
    the input, or when the program fails before the entry: the first step
    then evaluates again and reports the failure.
    """
    if not constant_gradient(graph, site.entry_node):
        return None
    try:
        tape = forward_eval(graph, [values[d.id] for d in graph.inputs], np.float32,
                            stop_at=site.entry_node)
    except EvaluationError:
        return None
    fixed = {}
    for signal in (Signal.INCREASE, Signal.DECREASE):
        deltas = propagate_signal(graph, site, tape, signal, rate)
        for key, delta in deltas.items():
            deltas[key] = delta = np.asarray(delta)  # a 0-d delta is a numpy scalar
            delta.flags.writeable = False
        fixed[signal] = deltas
    return fixed


def constrain_update(
    x: np.ndarray,
    delta: np.ndarray,
    bounds: Bounds,
    signal: Signal,
) -> np.ndarray:
    """Apply the mutation under interval constraints from the history.

    The issued signal first tightens the bounds at the current value; the
    candidate x + delta is replaced by the interval midpoint where both
    bounds are finite and clamped strictly inside one-sided bounds; elements
    whose bounds contradict are reset to (-inf, +inf). The bound arrays are
    updated in place.
    """
    lower, upper = bounds.lower, bounds.upper
    # the bounds update in place and the candidate goes through np.asarray:
    # a ufunc of 0-d operands returns a numpy scalar, which masks cannot write
    if signal is Signal.INCREASE:
        np.maximum(lower, x, out=lower)
    elif signal is Signal.DECREASE:
        np.minimum(upper, x, out=upper)
    # np.count_nonzero tests a mask without ndarray.any's Python-level wrapper
    violated = lower > upper
    if np.count_nonzero(violated):
        lower[violated] = -np.inf
        upper[violated] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):  # a step past float64's range is data
        candidate = np.asarray(x + delta)
        lo_fin = np.isfinite(lower)
        hi_fin = np.isfinite(upper)
        both = lo_fin & hi_fin
        np.copyto(candidate, 0.5 * (lower + upper), where=both)
        lo_only = lo_fin > hi_fin
        if np.count_nonzero(lo_only):
            margin = 1e-9 * np.maximum(1.0, np.abs(lower))
            np.copyto(candidate, lower + margin, where=lo_only & (candidate <= lower))
        hi_only = hi_fin > lo_fin
        if np.count_nonzero(hi_only):
            margin = 1e-9 * np.maximum(1.0, np.abs(upper))
            np.copyto(candidate, upper - margin, where=hi_only & (candidate >= upper))
    return candidate


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _needs_shadow(site: UnstableSite, reg: Registry) -> bool:
    """Whether the site's oracles read a double-precision shadow execution."""
    return any(b.type == WIDTH_ORACLE for b in reg.get(site.kernel).oracle_bindings)


def _operand_stop(graph: Graph, node: Node) -> str:
    """The last operand of node in topological order: a tape that reaches
    it holds every operand. When every operand is a program input, which
    every tape holds, that is the first operand."""
    produced = [n.id for n in graph.nodes if n.id in node.inputs]
    return produced[-1] if produced else node.inputs[0]


def validate_failure(
    graph: Graph,
    site: UnstableSite,
    inputs: Sequence[np.ndarray],
    registry: Optional[Registry] = None,
    tape: Optional[Tape] = None,
) -> OracleVerdict:
    """Execute to the site's operands and judge the kernel with its bound
    oracles, which run the site kernel on them.

    inputs are the program inputs, one array-like per graph input.
    Operands come from the native float32 execution, and the oracles judge
    the kernel with the node's own params. The execution stops at the last
    operand; the site node itself is not evaluated on the tape. A caller that
    already holds a float32 tape of these inputs passes it as tape; it is
    extended to the operands instead of evaluating the prefix again.
    Without one, a new tape is evaluated. A float64 shadow execution
    supplies the operands the increased-width oracle compares against; it
    runs only when that oracle is bound to the kernel, since no other
    oracle reads it.
    """
    reg = registry or default_registry()
    node = graph.node(site.node_id)
    stop = _operand_stop(graph, node)
    if tape is None:
        tape = forward_eval(graph, inputs, np.float32, stop_at=stop)
    elif tape.dtype != np.float32:
        raise UsageError("validation extends single-precision tapes only")
    else:
        extend_tape(tape, stop)
    operands = [tape.values[ref] for ref in node.inputs]
    wide = None
    if _needs_shadow(site, reg):
        wide_tape = forward_eval(graph, inputs, np.float64, stop_at=stop)
        wide = [wide_tape.values[ref] for ref in node.inputs]
    return run_oracles(site.kernel, node.params, operands, reg, wide_inputs=wide)


# ---------------------------------------------------------------------------
# the per-site search loop
# ---------------------------------------------------------------------------

def _initial_inputs(graph: Graph, rng: np.random.Generator) -> dict[str, np.ndarray]:
    values = {}
    for decl in graph.inputs:
        lo, hi = decl.bounds if decl.bounds is not None else DEFAULT_INPUT_RANGE
        values[decl.id] = rng.uniform(lo, hi, size=decl.shape)
    return values


def _clamps(decl) -> bool:
    return decl.clamp and decl.bounds is not None


def _clamp_declared(graph: Graph, values: dict[str, np.ndarray]) -> None:
    for decl in graph.inputs:
        if _clamps(decl):
            np.clip(values[decl.id], decl.bounds[0], decl.bounds[1],
                    out=values[decl.id])


def _site_features(tape, site: UnstableSite, forest: Forest) -> np.ndarray:
    features = featurize(tape.values[site.entry_node], forest.feature_len)
    return apply_scaling(features, forest.scaling)


def _state(graph: Graph, values: dict[str, np.ndarray], bounds: dict[str, Bounds]) -> tuple:
    """The bytes of every input value and bound array, which fix the next step."""
    return tuple(a.tobytes() for d in graph.inputs
                 for a in (values[d.id], bounds[d.id].lower, bounds[d.id].upper))


@np.errstate(over="ignore")  # an input past float32's range is data: forward_eval casts it to inf
def fuzz_site(
    graph: Graph,
    site: UnstableSite,
    forest: Forest,
    config: FuzzConfig,
    rng: np.random.Generator,
    registry: Optional[Registry] = None,
) -> FuzzResult:
    """Search for a failure-inducing input at one unstable site.

    A step that leaves the values and bounds byte for byte as they were is
    a fixed point: every later iteration would repeat it, so the rest of
    the budget is counted in `iterations` and `sa_queries` without being
    run, and the search ends with "iteration budget exhausted". The outcome
    and the generator state are those of running every iteration, except
    that the wall-clock timeout cannot fire in the tail that is not run.
    """
    if forest.kernel != site.kernel:
        raise UsageError(
            f"forest is for kernel '{forest.kernel}', site is '{site.kernel}'"
        )
    reg = registry or default_registry()
    result = FuzzResult(site=site, status="Exhausted")
    start = time.perf_counter()

    values = _initial_inputs(graph, rng)
    bounds = {d.id: Bounds.unconstrained(tuple(d.shape)) for d in graph.inputs}
    fixed = _fixed_deltas(graph, site, values, config.rate)

    while True:
        if result.iterations >= config.max_iters:
            result.diagnostics.append("iteration budget exhausted")
            break
        if time.perf_counter() - start > config.timeout:
            result.diagnostics.append("wall-clock timeout")
            break
        result.iterations += 1
        inputs = [values[d.id] for d in graph.inputs]
        try:
            tape = forward_eval(graph, inputs, np.float32, stop_at=site.entry_node)
        except EvaluationError as exc:
            result.diagnostics.append(f"evaluation failed upstream of the site: {exc}")
            break
        feats = _site_features(tape, site, forest)
        signal = predict(forest, feats)
        result.sa_queries += 1

        if signal is Signal.NO_CHANGE:
            try:
                verdict = validate_failure(graph, site, inputs, reg, tape=tape)
            except EvaluationError as exc:
                result.diagnostics.append(f"validation failed: {exc}")
                break
            if not verdict.passed:
                result.status = "Found"
                result.verdict = verdict
                result.failing_input = {k: v.tolist() for k, v in values.items()}
                break
            # misprediction: reset with a fresh initial input
            result.resets += 1
            if result.resets > MAX_RESETS:
                result.diagnostics.append("reset budget exhausted")
                break
            values = _initial_inputs(graph, rng)
            continue

        if fixed is None:
            deltas = propagate_signal(graph, site, tape, signal, config.rate)
        else:
            deltas = fixed[signal]
        before = _state(graph, values, bounds)
        for decl in graph.inputs:
            values[decl.id] = constrain_update(
                values[decl.id], deltas[decl.id], bounds[decl.id], signal
            )
        _clamp_declared(graph, values)
        if _state(graph, values, bounds) == before:
            skipped = config.max_iters - result.iterations
            log.debug("site '%s': fixed point at iteration %d, %d iterations not run",
                      site.node_id, result.iterations, skipped)
            result.sa_queries += skipped
            result.iterations = config.max_iters

    result.wall_time = time.perf_counter() - start
    return result


def _advance(stack: np.ndarray, i: int, decl) -> None:
    """Row i of a walk from row i - 1, where row i holds the step's deltas:
    their sum, clipped to the declared bounds where the input is clamped.
    Slices keep the rows of a rank-0 input arrays that out= can write."""
    row = stack[i:i + 1]
    np.add(stack[i - 1:i], row, out=row)
    if _clamps(decl):
        np.clip(row, decl.bounds[0], decl.bounds[1], out=row)


def _walk(graph: Graph, stacks: dict[str, np.ndarray], up: np.ndarray,
          fixed: dict[Signal, dict[str, np.ndarray]]) -> None:
    """Rows 1..n of every input's stack from row 0, by fixed deltas: row k
    adds the Increase deltas to row k - 1 where up[k - 1], else the Decrease
    deltas. One cumsum walks an input that is not clamped; numpy
    accumulates row after row, so its sums are those of adding one step at
    a time. A clamped input is walked a row at a time."""
    for decl in graph.inputs:
        stack = stacks[decl.id]
        stack[1:] = np.where(up.reshape((-1,) + (1,) * len(decl.shape)),
                             fixed[Signal.INCREASE][decl.id], fixed[Signal.DECREASE][decl.id])
        if _clamps(decl):
            for i in range(1, len(stack)):
                _advance(stack, i, decl)
        else:
            np.cumsum(stack, axis=0, out=stack)


def _chunk_operands(graph: Graph, node: Node, stacks: dict[str, np.ndarray], n: int,
                    stop: str, shadow: bool, tapes: Optional[list[Tape]]
                    ) -> tuple[list[np.ndarray], Optional[list[np.ndarray]]]:
    """The site's operands at the first n rows of the walk's stacks,
    stacked. In single precision they come from the steps' own tapes where
    the walk made them, else from one forward of the stacked rows to stop;
    in double, when shadow is set (else None), from one such forward. A
    constant operand of a stacked forward is one row."""
    inputs = [stacks[d.id][:n] for d in graph.inputs]
    if tapes is None:
        rows = forward_rows(graph, inputs, np.float32, stop)
        operands = [rows[ref] for ref in node.inputs]
    else:
        operands = [np.stack([tape.values[ref] for tape in tapes[:n]]) for ref in node.inputs]
    if not shadow:
        return operands, None
    rows = forward_rows(graph, inputs, np.float64, stop)
    return operands, [rows[ref] for ref in node.inputs]


def _first_failing_step(graph: Graph, stacks: dict[str, np.ndarray], n: int,
                        stop: str, shadow: bool) -> Optional[tuple[int, EvaluationError]]:
    """The first of the first n rows of the walk's stacks whose forward to
    stop fails, evaluated one at a time as a search that judges each step
    before the next would, and its error; None when every row evaluates."""
    for i in range(n):
        inputs = [stacks[d.id][i] for d in graph.inputs]
        try:
            forward_eval(graph, inputs, np.float32, stop_at=stop)
            if shadow:
                forward_eval(graph, inputs, np.float64, stop_at=stop)
        except EvaluationError as exc:
            return i, exc
    return None


@np.errstate(over="ignore")  # a walk past float32's range, or float64's, is data
def random_fuzz_site(
    graph: Graph,
    site: UnstableSite,
    config: FuzzConfig,
    rng: np.random.Generator,
    registry: Optional[Registry] = None,
) -> FuzzResult:
    """Baseline: identical mutation magnitudes, uniformly random directions,
    no assertion guidance and no history constraints; the oracles judge
    every iteration.

    The walk does not depend on a verdict until the first failure, so the
    iterations run in chunks of 1, 2, 4, ... up to CHUNK_CAP, cut short by
    the iteration budget. A chunk of n steps draws all its directions in
    one call and walks them as one (n + 1, *shape) float64 stack per
    program input: row 0 is the current value, row k the input after k
    steps, and row n the next chunk's start. When the entry's gradient is
    the same at every input, the deltas of each direction are computed once
    per search on the first step's tape, and the walk is their running sum
    (_walk), with no forward or backward of its own. Otherwise a step does
    one single-precision forward to the site's operands, back-propagates
    its direction from the entry on that tape, and writes the next row.
    Then one oracle_rows call runs the site kernel on the operands of rows
    0..n-1, stacked from the steps' tapes or from one forward of those rows
    (plus the double shadow when the width oracle reads it, always one
    forward), and judges every step; the first failing row is the find,
    and its failing input is that row. The site node itself is never
    evaluated on a tape. When a stacked forward fails, the rows are
    evaluated one at a time to find the first that fails. A find at row i,
    or a forward that fails at step i, rewinds the generator to the start
    of the chunk and draws the i directions before it again, so the
    outcome and the generator state are those of judging each iteration
    before the next. A forward that fails ends the search once the steps
    before it are judged. The wall-clock timeout is checked between chunks.
    """
    reg = registry or default_registry()
    node = graph.node(site.node_id)
    stop = _operand_stop(graph, node)
    shadow = _needs_shadow(site, reg)
    result = FuzzResult(site=site, status="Exhausted")
    start = time.perf_counter()
    values = _initial_inputs(graph, rng)
    fixed = _fixed_deltas(graph, site, values, config.rate)
    size = 1
    while not result.found:
        if result.iterations >= config.max_iters:
            result.diagnostics.append("iteration budget exhausted")
            break
        if time.perf_counter() - start > config.timeout:
            result.diagnostics.append("wall-clock timeout")
            break
        rewind = rng.bit_generator.state
        # one call draws the stream that as many scalar draws would
        up = rng.uniform(size=min(size, config.max_iters - result.iterations)) < 0.5
        stacks = {d.id: np.empty((len(up) + 1, *d.shape)) for d in graph.inputs}
        for key, stack in stacks.items():
            stack[0] = values[key]
        tapes, error = None, None
        if fixed is None:
            tapes = []
            for i, increase in enumerate(up.tolist()):
                try:
                    tape = forward_eval(graph, [stacks[d.id][i] for d in graph.inputs],
                                        np.float32, stop_at=stop)
                except EvaluationError as exc:
                    error = exc
                    break
                tapes.append(tape)
                deltas = propagate_signal(graph, site, tape, Signal.INCREASE if increase
                                          else Signal.DECREASE, config.rate)
                for decl in graph.inputs:
                    stacks[decl.id][i + 1] = deltas[decl.id]
                    _advance(stacks[decl.id], i + 1, decl)
        else:
            _walk(graph, stacks, up, fixed)
        steps = len(up) if tapes is None else len(tapes)
        if steps:
            try:
                operands, wide = _chunk_operands(graph, node, stacks, steps, stop, shadow, tapes)
            except EvaluationError:
                # a step's forward fails: find it, and judge the steps before it
                failing = _first_failing_step(graph, stacks, steps, stop, shadow)
                if failing is None:  # no step fails alone: the rows are not independent
                    raise
                steps, error = failing
                if steps:
                    operands, wide = _chunk_operands(graph, node, stacks, steps, stop,
                                                     shadow, tapes)
        used = steps  # directions a one-at-a-time loop would have drawn
        if steps:
            rows = oracle_rows(site.kernel, node.params, operands, reg, wide)
            failed = np.flatnonzero(~rows.passed)
            if failed.size:
                used = int(failed[0])
                steps = used + 1
                result.status = "Found"
                result.verdict = rows.verdict(used)
                result.failing_input = {k: stack[used].tolist() for k, stack in stacks.items()}
        if used < len(up):
            rng.bit_generator.state = rewind
            rng.uniform(size=used)
        result.iterations += steps
        if error is not None and not result.found:
            result.iterations += 1
            result.diagnostics.append(f"validation failed: {error}")
            break
        values = {k: stack[-1] for k, stack in stacks.items()}
        size = min(2 * size, CHUNK_CAP)
    result.wall_time = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# whole-program driver
# ---------------------------------------------------------------------------

def select_forest(models: Sequence[Forest], site: UnstableSite) -> Optional[Forest]:
    """Prefer the forest whose shape class matches the site entry; fall back
    to the 9-feature forest, which accepts any entry via quantile features."""
    candidates = [f for f in models if f.kernel == site.kernel]
    if not candidates:
        return None
    if site.entry_shape is not None:
        size = int(np.prod(site.entry_shape)) if site.entry_shape else 1
        for f in candidates:
            if f.feature_len == size:
                return f
    for f in candidates:
        if f.feature_len == 9:
            return f
    return candidates[0]


def fuzz_program(
    graph: Graph,
    registry: Optional[Registry],
    models: Sequence[Forest],
    config: FuzzConfig,
) -> tuple[list[FuzzResult], list[str]]:
    """Fuzz every unstable site sequentially in scan order."""
    reg = registry or default_registry()
    scan = scan_for_unstable(graph, reg)
    diagnostics = list(scan.diagnostics)
    results: list[FuzzResult] = []
    for index, site in enumerate(scan.sites):
        forest = select_forest(models, site)
        if forest is None:
            diagnostics.append(
                f"site '{site.node_id}' ({site.kernel}): no trained model; skipped"
            )
            continue
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
        results.append(fuzz_site(graph, site, forest, config, rng, reg))
    return results, diagnostics
