"""Program files: the JSON surface for target computation graphs.

A program file declares named inputs (shape, optional element bounds, an
optional clamp flag that keeps mutations inside those bounds, mirroring pixel
constraints), a topologically ordered node list, the output id, and free-form
metadata. Corpus entries carry their expected failure class and a suggested
mutation rate (a positive finite number, read as a float) in metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from safuzz.errors import GraphParseError
from safuzz.graph import Graph, InputDecl, Node
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
        bounds = raw.get("bounds")
        return InputDecl(
            id=raw["id"],
            shape=tuple(int(d) for d in raw["shape"]),
            bounds=(float(bounds[0]), float(bounds[1])) if bounds else None,
            clamp=bool(raw.get("clamp", False)),
        )
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise GraphParseError(f"malformed input declaration {raw!r}: {exc}") from exc


def _parse_node(raw: dict) -> Node:
    try:
        return Node(
            id=raw["id"],
            op=raw["op"],
            inputs=tuple(raw.get("inputs", [])),
            params=dict(raw.get("params", {})),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GraphParseError(f"malformed node {raw!r}: {exc}") from exc


def _parse_metadata(raw) -> dict:
    if not isinstance(raw, dict):
        raise GraphParseError(f"metadata {raw!r} is not an object")
    rate = raw.get("rate")
    if rate is not None and not (type(rate) in (int, float) and 0 < rate < math.inf):
        raise GraphParseError(f"metadata rate {rate!r} is not a positive finite number")
    return dict(raw) if rate is None else {**raw, "rate": float(rate)}


def program_from_dict(doc: dict, registry: Optional[Registry] = None) -> ProgramSpec:
    if not isinstance(doc, dict):
        raise GraphParseError(f"a program is a JSON object, not {type(doc).__name__}")
    if doc.get("format_version") != PROGRAM_FORMAT_VERSION:
        raise GraphParseError(
            f"unsupported program format_version {doc.get('format_version')!r}"
        )
    spec = ProgramSpec(
        name=doc.get("name", "<unnamed>"),
        inputs=[_parse_input(r) for r in doc.get("inputs", [])],
        nodes=[_parse_node(r) for r in doc.get("nodes", [])],
        output=doc.get("output", ""),
        metadata=_parse_metadata(doc.get("metadata", {})),
    )
    spec.to_graph(registry)  # validates ops, ordering, shapes
    return spec


def program_parse(path, registry: Optional[Registry] = None) -> ProgramSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphParseError(f"cannot read program file {path}: {exc}") from exc
    return program_from_dict(doc, registry)
