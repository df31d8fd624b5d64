"""Program files: the JSON surface for target computation graphs.

A program file declares named inputs (shape, optional element bounds, an
optional clamp flag that keeps mutations inside those bounds, mirroring pixel
constraints), a topologically ordered node list, the output id, and free-form
metadata. Corpus entries carry their expected failure class (null or a
FailureClass value) and a suggested mutation rate (a positive finite number,
read as a float) in metadata.

Loading checks, so no search meets a malformed program: format_version is
the JSON int 1; the name, ids, ops and the output are strings; inputs and
nodes are lists; an input's shape is a list of ints, its bounds, when
given, are [lo, hi], two finite numbers with lo < hi and a finite hi - lo,
and its clamp is a bool, true only with bounds. A node's inputs are a list
of ids defined before it, and its params an object that its op accepts.
Every shape, declared or inferred, has dimensions of at least 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from safuzz.errors import GraphParseError
from safuzz.graph import Graph, InputDecl, Node
from safuzz.oracles import FailureClass
from safuzz.registry import Registry, default_registry

PROGRAM_FORMAT_VERSION = 1


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
                     extra_ops=frozenset(reg.names()))

    @property
    def expected_failure_class(self) -> Optional[str]:
        return self.metadata.get("expected_failure_class")

    @property
    def rate(self) -> Optional[float]:
        return self.metadata.get("rate")


def _parse_input(raw: dict) -> InputDecl:
    try:
        shape, bounds, clamp = raw["shape"], raw.get("bounds"), raw.get("clamp", False)
        if not isinstance(raw["id"], str):
            raise ValueError("id must be a string")
        if not isinstance(shape, list) or not all(type(d) is int for d in shape):
            raise ValueError("shape must be a list of ints")
        numbers = isinstance(bounds, list) and all(type(b) in (int, float) for b in bounds)
        if bounds is not None and not (numbers and len(bounds) == 2):  # a bool is no number
            raise ValueError("bounds must be [lo, hi], two numbers")
        if type(clamp) is not bool:
            raise ValueError("clamp must be true or false")
        return InputDecl(id=raw["id"], shape=tuple(shape), clamp=clamp,
                         bounds=None if bounds is None else tuple(map(float, bounds)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GraphParseError(f"malformed input declaration {raw!r}: {exc}") from exc


def _parse_node(raw: dict) -> Node:
    try:
        inputs, params = raw.get("inputs", []), raw.get("params", {})
        if not isinstance(raw["id"], str) or not isinstance(raw["op"], str):
            raise ValueError("id and op must be strings")
        if not isinstance(inputs, list) or not all(isinstance(r, str) for r in inputs):
            raise ValueError("inputs must be a list of ids")
        if not isinstance(params, dict):
            raise ValueError("params must be an object")
        return Node(id=raw["id"], op=raw["op"], inputs=tuple(inputs), params=dict(params))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GraphParseError(f"malformed node {raw!r}: {exc}") from exc


def _parse_metadata(raw) -> dict:
    if not isinstance(raw, dict):
        raise GraphParseError(f"metadata {raw!r} is not an object")
    rate, expected = raw.get("rate"), raw.get("expected_failure_class")
    if rate is not None and not (type(rate) in (int, float) and 0 < rate < math.inf):
        raise GraphParseError(f"metadata rate {rate!r} is not a positive finite number")
    if expected is not None and expected not in [c.value for c in FailureClass]:
        raise GraphParseError(f"metadata expected_failure_class {expected!r} is no failure class")
    return dict(raw) if rate is None else {**raw, "rate": float(rate)}


def program_from_dict(doc: dict, registry: Optional[Registry] = None) -> ProgramSpec:
    if not isinstance(doc, dict):
        raise GraphParseError(f"a program is a JSON object, not {type(doc).__name__}")
    version, name = doc.get("format_version"), doc.get("name", "<unnamed>")
    if type(version) is not int or version != PROGRAM_FORMAT_VERSION:
        raise GraphParseError(f"unsupported program format_version {version!r}")
    if not isinstance(name, str):
        raise GraphParseError(f"name {name!r} is not a string")
    if not isinstance(doc.get("output"), str):
        raise GraphParseError(f"output {doc.get('output')!r} is not a node id")
    inputs, nodes = doc.get("inputs", []), doc.get("nodes", [])
    if not isinstance(inputs, list) or not isinstance(nodes, list):
        raise GraphParseError(f"inputs and nodes must be lists, not {type(inputs).__name__} "
                              f"and {type(nodes).__name__}")
    spec = ProgramSpec(name, [_parse_input(r) for r in inputs], [_parse_node(r) for r in nodes],
                       doc["output"], _parse_metadata(doc.get("metadata", {})))
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
