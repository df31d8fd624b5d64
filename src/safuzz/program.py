"""Program files: the JSON surface for target computation graphs.

A program file declares named inputs (shape, optional element bounds, an
optional clamp flag that keeps mutations inside those bounds, mirroring pixel
constraints), a topologically ordered node list, the output id, and free-form
metadata. Corpus entries carry their expected failure class (null or a
FailureClass value) and a suggested mutation rate (a positive finite number,
read as a float; 1.0 where none is given) in metadata.

Loading checks, so no search meets a malformed program; the readers of
safuzz.jsonfields decide every field's JSON type. An input's bounds, when
given, are [lo, hi] with lo < hi and a finite hi - lo, and its clamp is true
only with bounds. A node's inputs are ids defined before it, and its params
ones its op accepts. Every shape, declared or inferred, has dimensions of
at least 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from safuzz.errors import GraphParseError
from safuzz.graph import Graph, InputDecl, Node
from safuzz.jsonfields import dimensions, document, number, positive, typed
from safuzz.oracles import FailureClass
from safuzz.registry import Registry, default_registry


@dataclass
class ProgramSpec:
    name: str
    inputs: list[InputDecl]
    nodes: list[Node]
    output: str
    metadata: dict = field(default_factory=dict)

    def to_graph(self, registry: Optional[Registry] = None) -> Graph:
        reg = registry or default_registry()
        return Graph(self.inputs, self.nodes, self.output,
                     extra_ops=frozenset(reg.entries))

    @property
    def expected_failure_class(self) -> Optional[str]:
        return self.metadata.get("expected_failure_class")

    @property
    def rate(self) -> float:
        return self.metadata.get("rate") or 1.0


def _parse_input(raw) -> InputDecl:
    raw = typed(raw, dict, "input")
    name = typed(raw.get("id"), str, "input id")
    what, bounds = f"input '{name}'", raw.get("bounds")
    if bounds is not None and len(typed(bounds, list, f"{what} bounds")) != 2:
        raise ValueError(f"{what} bounds {bounds!r} are not [lo, hi]")
    return InputDecl(id=name, shape=dimensions(raw.get("shape"), f"{what} shape"),
                     clamp=typed(raw.get("clamp", False), bool, f"{what} clamp"),
                     bounds=None if bounds is None else
                     tuple(number(b, f"{what} bound") for b in bounds))


def _parse_node(raw) -> Node:
    raw = typed(raw, dict, "node")
    name = typed(raw.get("id"), str, "node id")
    what = f"node '{name}'"
    inputs = typed(raw.get("inputs", []), list, f"{what} inputs")
    return Node(id=name, op=typed(raw.get("op"), str, f"{what} op"),
                inputs=tuple(typed(r, str, f"{what} input") for r in inputs),
                params=dict(typed(raw.get("params", {}), dict, f"{what} params")))


def _parse_metadata(raw) -> dict:
    meta = dict(typed(raw, dict, "metadata"))
    if meta.get("rate") is not None:
        meta["rate"] = positive(meta["rate"], "metadata rate")
    expected = meta.get("expected_failure_class")
    if expected is not None and expected not in [c.value for c in FailureClass]:
        raise ValueError(f"metadata expected_failure_class {expected!r} is no failure class")
    return meta


def program_from_dict(doc, registry: Optional[Registry] = None) -> ProgramSpec:
    try:
        doc = document(doc, "program")
        spec = ProgramSpec(typed(doc.get("name", "<unnamed>"), str, "name"),
                           [_parse_input(r) for r in typed(doc.get("inputs", []), list, "inputs")],
                           [_parse_node(r) for r in typed(doc.get("nodes", []), list, "nodes")],
                           typed(doc.get("output"), str, "output"),
                           _parse_metadata(doc.get("metadata", {})))
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc
    spec.to_graph(registry)  # validates ops, ordering, shapes
    return spec


def program_parse(path, registry: Optional[Registry] = None) -> ProgramSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    # JSONDecodeError is a ValueError, and so is an int of more digits than Python converts
    except (OSError, ValueError) as exc:
        raise GraphParseError(f"cannot read program file {path}: {exc}") from exc
    return program_from_dict(doc, registry)
