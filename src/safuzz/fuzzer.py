"""Soft-assertion guided search for failure-inducing inputs.

Two drivers walk a program's unstable sites in scan order and seed each from
(config.seed, its index) alone. fuzz_program searches the sites that have a
trained model, one forest per kernel serving every entry size;
random_fuzz_program runs the random baseline at every site.

For each unstable site found in a program graph, the loop executes the
program to the site's operands, asks the site's soft assertion how to
transform the entry values, and either judges a predicted failure with the
oracles or back-propagates the increase/decrease signal from the entry to
mutate the program inputs. Interval bounds accumulated from issued signals
narrow the search (history constraints); contradictory bounds reset
element-wise.

One judge serves validate_failure and both loops: oracle_rows runs the site
kernel on the single-precision operands, one row per execution, with a
double-precision shadow forward only when the increased-width oracle reads
it. The site node itself is never evaluated in a forward.

When every op between the program inputs and the site entry has a VJP that
reads no operand value (autodiff.constant_gradient), the gradient of the
entry is the same at every input, and so are the deltas of each signal. Both
loops then compute them once per search and keep them read-only.

The random baseline walks a chunk of n steps as one (n + 1, *shape) stack
per program input: row 0 is the current value, row k the value after k
steps. With fixed deltas and no input clamped to its declared bounds, the
walk is one running sum over each stack; otherwise one row loop adds each
step and clips the clamped inputs, and without fixed deltas each step makes
one forward to the site entry for its backward. Either way one stacked
forward to the site's operands feeds the judge.
Values past the range of float32 or float64 are data in both loops, not
warnings.

A forward raises EvaluationError for every input or for none: whether it
does depends on the graph's params and shapes, never on a value or the
dtype. So each loop has one failure path, taken at its first iteration.

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

from safuzz.autodiff import backward, constant_gradient, forward_eval, forward_rows
from safuzz.datagen import Signal, apply_scaling, featurize
from safuzz.errors import EvaluationError, UsageError
from safuzz.forest import Forest, predict
from safuzz.graph import Graph, Node
from safuzz.kernels import op_def
from safuzz.oracles import WIDTH_ORACLE, OracleRows, OracleVerdict, oracle_rows
from safuzz.registry import Registry, default_registry

log = logging.getLogger(__name__)

DEFAULT_INPUT_RANGE = (-10.0, 10.0)
GRAD_FLOOR = 1e-6  # smallest gradient magnitude a mutation step divides by
MAX_RESETS = 50  # mispredictions fuzz_site tolerates before giving up
CHUNK_CAP = 64  # most iterations random_fuzz_site judges in one oracle call


@dataclass(frozen=True)
class UnstableSite:
    node_id: str
    kernel: str
    entry_node: str  # producer of the operand the assertion inspects


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
        if not self.timeout > 0 or not 0 < self.rate < np.inf:
            raise UsageError("timeout must be positive, and rate positive and finite")
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

    Registry matches without an executable implementation (no soft
    assertion exists), or with an operand that depends on such an op, are
    reported as diagnostics: they cannot be fuzzed.
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
        if any(graph.shape_of(ref) is None for ref in node.inputs):
            diagnostics.append(f"node '{node.id}': an operand needs an op with no implementation")
            continue
        sites.append(UnstableSite(node_id=node.id, kernel=node.op,
                                  entry_node=node.inputs[op_def(node.op).primary]))
    return ScanResult(sites=sites, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# signal propagation and history-constrained updates
# ---------------------------------------------------------------------------

def propagate_signal(
    graph: Graph,
    site: UnstableSite,
    values: dict[str, np.ndarray],
    signal: Signal,
    rate: float,
) -> dict[str, np.ndarray]:
    """Input adjustment per element: (signal sign * rate) / clamped gradient.

    The gradient, at the forward values, is of the sum of the site-entry
    elements with respect to each program input; clamping keeps
    |g| >= GRAD_FLOOR with sign(0) := +1.
    """
    if signal is Signal.NO_CHANGE:
        raise UsageError("no-change signals do not propagate")
    seed = np.empty(values[site.entry_node].shape)
    seed.fill(1.0)  # np.ones, without its Python-level wrapper
    grads = backward(graph, values, site.entry_node, seed)
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
    entry is the same at every input; propagate_signal runs on a forward of
    values, the search's first input. None when the gradient depends on
    the input, or when the program fails before the entry: the first step
    then evaluates again and reports the failure.
    """
    if not constant_gradient(graph, site.entry_node):
        return None
    try:
        evaluated = forward_eval(graph, [values[d.id] for d in graph.inputs], np.float32,
                                 stop_at=site.entry_node)
    except EvaluationError:
        return None
    fixed = {}
    for signal in (Signal.INCREASE, Signal.DECREASE):
        deltas = propagate_signal(graph, site, evaluated, signal, rate)
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

def _operand_stop(graph: Graph, node: Node) -> str:
    """The last operand of node in topological order: a forward that
    reaches it holds every operand. When every operand is a program input,
    which every forward holds, that is the first operand."""
    produced = [n.id for n in graph.nodes if n.id in node.inputs]
    return produced[-1] if produced else node.inputs[0]


def _judge(graph: Graph, site: UnstableSite, node: Node, stop: str,
           operands: list[np.ndarray], inputs: list[np.ndarray], reg: Registry) -> OracleRows:
    """The site's bound oracles over executions stacked one row each:
    operands are the site's single-precision operands, inputs the program
    inputs that produced them. The double-precision shadow forward of the
    inputs to stop runs only when the increased-width oracle is bound,
    since no other oracle reads it."""
    wide = None
    if any(b.type == WIDTH_ORACLE for b in reg.get(site.kernel).oracle_bindings):
        rows = forward_rows(graph, inputs, np.float64, stop)
        wide = [rows[ref] for ref in node.inputs]
    return oracle_rows(site.kernel, node.params, operands, reg, wide)


def validate_failure(
    graph: Graph,
    site: UnstableSite,
    inputs: Sequence[np.ndarray],
    registry: Optional[Registry] = None,
) -> OracleVerdict:
    """Execute to the site's operands in native float32 and judge the
    kernel with its bound oracles, which run it on them with the node's own
    params; inputs are the program inputs, one array-like per graph input.
    """
    reg = registry or default_registry()
    node = graph.node(site.node_id)
    stop = _operand_stop(graph, node)
    values = forward_eval(graph, inputs, np.float32, stop_at=stop)
    return _judge(graph, site, node, stop, [values[ref][None] for ref in node.inputs],
                  [np.asarray(x, dtype=np.float64)[None] for x in inputs], reg).verdict(0)


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


def _site_features(values, site: UnstableSite, forest: Forest) -> np.ndarray:
    features = featurize(values[site.entry_node], forest.feature_len)
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
    node = graph.node(site.node_id)
    stop = _operand_stop(graph, node)
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
            evaluated = forward_eval(graph, inputs, np.float32, stop_at=stop)
        except EvaluationError as exc:
            result.diagnostics.append(f"evaluation failed upstream of the site: {exc}")
            break
        feats = _site_features(evaluated, site, forest)
        signal = predict(forest, feats)
        result.sa_queries += 1

        if signal is Signal.NO_CHANGE:
            verdict = _judge(graph, site, node, stop, [evaluated[ref][None] for ref in node.inputs],
                             [x[None] for x in inputs], reg).verdict(0)
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
            deltas = propagate_signal(graph, site, evaluated, signal, config.rate)
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


def _walk(graph: Graph, site: UnstableSite, stacks: dict[str, np.ndarray], up: np.ndarray,
          fixed: Optional[dict[Signal, dict[str, np.ndarray]]], rate: float) -> None:
    """Rows 1..n of every input's stack from row 0: row k adds the Increase
    deltas to row k - 1 where up[k - 1], else the Decrease deltas, clipped
    to the declared bounds where the input is clamped. Fixed deltas fill
    rows 1..n first, and with no input clamped one cumsum per input walks
    them; numpy accumulates row after row, so its sums are those of adding
    one step at a time. Otherwise one row loop adds each step, and without
    fixed deltas each step back-propagates from a forward of row k - 1.
    Slices keep the rows of a rank-0 input arrays that out= can write."""
    if fixed is not None:
        for decl in graph.inputs:
            stacks[decl.id][1:] = np.where(up.reshape((-1,) + (1,) * len(decl.shape)),
                                           fixed[Signal.INCREASE][decl.id],
                                           fixed[Signal.DECREASE][decl.id])
        if not any(_clamps(d) for d in graph.inputs):
            for stack in stacks.values():
                np.cumsum(stack, axis=0, out=stack)
            return
    for i, increase in enumerate(up.tolist(), start=1):
        if fixed is None:
            evaluated = forward_eval(graph, [stacks[d.id][i - 1] for d in graph.inputs],
                                     np.float32, stop_at=site.entry_node)
            deltas = propagate_signal(graph, site, evaluated, Signal.INCREASE
                                      if increase else Signal.DECREASE, rate)
            for decl in graph.inputs:
                stacks[decl.id][i] = deltas[decl.id]
        for decl in graph.inputs:
            stack = stacks[decl.id]
            row = stack[i:i + 1]
            np.add(stack[i - 1:i], row, out=row)
            if _clamps(decl):
                np.clip(row, decl.bounds[0], decl.bounds[1], out=row)


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
    one call and walks them as one float64 stack per program input (see
    the module docstring); row n is the next chunk's start. The judge then
    runs the site kernel on the operands of rows 0..n-1, from one stacked
    forward of those rows, and judges every step; the first failing row is
    the find, and its failing input is that row. A find at row i rewinds
    the generator to the start of the chunk and draws the i directions
    before it again, so the outcome and the generator state are those of
    judging each iteration before the next. A forward fails for every input
    or for none, so one that fails does so on the first chunk's only row:
    the generator is rewound to the chunk start and the search ends after
    one iteration. The wall-clock timeout is checked between chunks.
    """
    reg = registry or default_registry()
    node = graph.node(site.node_id)
    stop = _operand_stop(graph, node)
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
        try:
            _walk(graph, site, stacks, up, fixed, config.rate)
            inputs = [stacks[d.id][:-1] for d in graph.inputs]
            operands = forward_rows(graph, inputs, np.float32, stop)
            rows = _judge(graph, site, node, stop, [operands[ref] for ref in node.inputs],
                          inputs, reg)
        except EvaluationError as exc:
            rng.bit_generator.state = rewind
            result.iterations += 1
            result.diagnostics.append(f"validation failed: {exc}")
            break
        steps = len(up)
        failed = np.flatnonzero(~rows.passed)
        if failed.size:
            used = int(failed[0])  # directions a one-at-a-time loop would have drawn
            steps = used + 1
            result.status = "Found"
            result.verdict = rows.verdict(used)
            result.failing_input = {k: stack[used].tolist() for k, stack in stacks.items()}
            rng.bit_generator.state = rewind
            rng.uniform(size=used)
        result.iterations += steps
        values = {k: stack[-1] for k, stack in stacks.items()}
        size = min(2 * size, CHUNK_CAP)
    result.wall_time = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# whole-program drivers
# ---------------------------------------------------------------------------

def _site_rng(config: FuzzConfig, index: int) -> np.random.Generator:
    """The generator of the site at index in scan order. It depends on no
    other site, and both drivers' searches of a site start from one input."""
    return np.random.default_rng(np.random.SeedSequence([config.seed, index]))


def fuzz_program(graph: Graph, registry: Optional[Registry], models: Sequence[Forest],
                 config: FuzzConfig) -> tuple[list[FuzzResult], list[str]]:
    """Fuzz every unstable site that has a trained model, in scan order;
    models holds at most one forest per kernel, which serves any entry size."""
    forests: dict[str, Forest] = {}
    for forest in models:
        if forest.kernel in forests:
            raise UsageError(f"more than one model for kernel '{forest.kernel}'")
        forests[forest.kernel] = forest
    reg = registry or default_registry()
    scan = scan_for_unstable(graph, reg)
    diagnostics = list(scan.diagnostics)
    results: list[FuzzResult] = []
    for index, site in enumerate(scan.sites):
        forest = forests.get(site.kernel)
        if forest is None:
            diagnostics.append(
                f"site '{site.node_id}' ({site.kernel}): no trained model; skipped"
            )
            continue
        results.append(fuzz_site(graph, site, forest, config, _site_rng(config, index), reg))
    return results, diagnostics


def random_fuzz_program(graph: Graph, registry: Optional[Registry],
                        config: FuzzConfig) -> list[FuzzResult]:
    """The random baseline at every unstable site in scan order, a site
    with no trained model included, each seeded as fuzz_program seeds it."""
    reg = registry or default_registry()
    return [random_fuzz_site(graph, site, config, _site_rng(config, index), reg)
            for index, site in enumerate(scan_for_unstable(graph, reg).sites)]
