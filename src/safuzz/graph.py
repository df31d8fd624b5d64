"""Computation graphs: ordered nodes over declared entry inputs.

Graphs are declarative and topologically ordered by construction: every node
may only reference inputs or nodes that appear before it. Ops resolve either
in the executable catalog or in a caller-supplied set of known-but-unbacked
names (registry entries without an implementation); shapes are inferred where
a shape rule exists, and every shape, an input's included, has dimensions of
at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from safuzz.errors import GraphParseError
from safuzz.kernels import ALL_OPS
from safuzz.tensor import MAX_RANK


@dataclass(frozen=True)
class InputDecl:
    id: str
    shape: tuple[int, ...]
    bounds: Optional[tuple[float, float]] = None
    clamp: bool = False  # when set, the fuzzer keeps mutations inside bounds

    def __post_init__(self):
        if len(self.shape) > MAX_RANK:
            raise GraphParseError(f"input '{self.id}': rank exceeds {MAX_RANK}")
        if self.clamp and self.bounds is None:
            raise GraphParseError(f"input '{self.id}': a clamp needs bounds")
        # the search draws uniformly from [lo, hi], which needs a finite hi - lo
        if self.bounds is not None and not (-np.inf < self.bounds[0] < self.bounds[1]
                                            and self.bounds[1] - self.bounds[0] < np.inf):
            raise GraphParseError(f"input '{self.id}': bounds must be finite with lo < hi "
                                  "and a finite width")


def _sized(what: str, shape: tuple[int, ...]) -> tuple[int, ...]:
    """shape, if every dimension is at least 1: an empty value has nothing to search."""
    if min(shape, default=1) < 1:
        raise GraphParseError(f"{what}: every dimension must be at least 1, got {list(shape)}")
    return shape


@dataclass(frozen=True, eq=False)
class Node:
    id: str
    op: str
    inputs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


class Graph:
    """Validated computation graph with inferred per-node shapes."""

    def __init__(
        self,
        inputs: Iterable[InputDecl],
        nodes: Iterable[Node],
        output: str,
        extra_ops: frozenset[str] = frozenset(),
    ):
        self.inputs = tuple(inputs)
        self.nodes = tuple(nodes)
        self.output = output
        self.shapes: dict[str, Optional[tuple[int, ...]]] = {}
        # dtype -> node id -> the read-only value of a node without operands,
        # which depends on no input; autodiff makes each once
        self.constants: dict[np.dtype, dict[str, np.ndarray]] = {}
        self._validate(extra_ops)

    def _validate(self, extra_ops: frozenset[str]) -> None:
        seen: set[str] = set()
        for decl in self.inputs:
            if decl.id in seen:
                raise GraphParseError(f"duplicate id '{decl.id}'")
            seen.add(decl.id)
            self.shapes[decl.id] = _sized(f"input '{decl.id}'", tuple(decl.shape))
        for node in self.nodes:
            if node.id in seen:
                raise GraphParseError(f"duplicate id '{node.id}'")
            for ref in node.inputs:
                if ref not in seen:
                    raise GraphParseError(
                        f"node '{node.id}' references '{ref}' before its definition "
                        "(cycle or unknown id)"
                    )
            op = ALL_OPS.get(node.op)
            if op is None and node.op not in extra_ops:
                raise GraphParseError(f"node '{node.id}': unknown op '{node.op}'")
            if op is not None:
                if len(node.inputs) != op.arity:
                    raise GraphParseError(
                        f"node '{node.id}': op '{node.op}' takes {op.arity} operand(s), "
                        f"got {len(node.inputs)}"
                    )
                in_shapes = [self.shapes[r] for r in node.inputs]
                if any(s is None for s in in_shapes):
                    self.shapes[node.id] = None
                else:
                    try:
                        shape = op.shape_rule(node.params, *in_shapes)
                    except ValueError as exc:
                        raise GraphParseError(f"node '{node.id}': {exc}") from exc
                    self.shapes[node.id] = _sized(f"node '{node.id}'", tuple(map(int, shape)))
            else:
                self.shapes[node.id] = None
            seen.add(node.id)
        if self.output not in seen:
            raise GraphParseError(f"output id '{self.output}' is not defined")

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)
