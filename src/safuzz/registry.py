"""The unstable-function database.

The shipped registry carries 61 entries. An entry holds what only the
registry knows: category, oracle bindings and generation hints. The op table
(kernels.KERNEL_OPS) decides which entries execute: those whose name it
holds have a forward, a gradient and at least one bound oracle, and every
other entry is metadata that records name, category and oracle tags only, so
scanning can still flag it with a no-assertion-available diagnostic.

Arity, params, counterpart and the operand a soft assertion inspects also
belong to the op table (kernels.op_def), and loading checks that an entry
agrees with it: an executable kernel bound to oracle type 3, 4 or 5 has a
counterpart. It also has generation hints and an oracle other than type 4,
which judges only symmetric positive-definite rows, so some oracle judges
every row. Params come from the call site that runs a kernel, never from its
entry. Entries carry no hand-written safe condition: the bound oracles
define where a kernel fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

from safuzz.errors import CapabilityError, RegistryError
from safuzz.jsonfields import document, number, positive, typed
from safuzz.kernels import KERNEL_OPS

DATA_DIR = Path(__file__).parent / "data"
DEFAULT_REGISTRY_PATH = DATA_DIR / "registry.json"

ORACLE_TYPES = {1, 2, 3, 4, 5, 6}
COUNTERPART_ORACLES = {3, 4, 5}  # the types that compare a kernel with its counterpart


@dataclass(frozen=True)
class OracleBinding:
    type: int
    lo: Optional[float] = None
    hi: Optional[float] = None
    tolerance: float = 1e-6


@dataclass(frozen=True)
class GenerationHints:
    regions: tuple[tuple[float, float], ...]
    failure_seeds: tuple[float, ...] = ()
    zero_epsilon: Optional[float] = None


@dataclass(frozen=True)
class KernelSpec:
    name: str
    category: str
    oracle_bindings: tuple[OracleBinding, ...]
    generation: Optional[GenerationHints] = None

    @property
    def implemented(self) -> bool:
        """Whether the op table has an executable kernel of this name."""
        return self.name in KERNEL_OPS


@dataclass(frozen=True)
class Registry:
    entries: dict[str, KernelSpec]
    version: str

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str) -> KernelSpec:
        if name not in self.entries:
            raise CapabilityError(f"kernel '{name}' is not in the registry")
        return self.entries[name]


def _parse_binding(raw, what: str) -> OracleBinding:
    raw = typed(raw, dict, f"{what} oracle binding")
    otype = typed(raw.get("type"), int, f"{what} oracle type")
    if otype not in ORACLE_TYPES:
        raise ValueError(f"{what} oracle type {otype} is unknown")
    lo, hi = (None if raw.get(key) is None else number(raw[key], f"{what} oracle {key}")
              for key in ("lo", "hi"))
    if otype == 2 and (lo is None or hi is None or not lo < hi):
        raise ValueError(f"{what} range oracle needs lo < hi")
    return OracleBinding(type=otype, lo=lo, hi=hi,
                         tolerance=positive(raw.get("tolerance", 1e-6), f"{what} tolerance"))


def _parse_generation(raw, what: str) -> GenerationHints:
    raw = typed(raw, dict, f"{what} generation")
    regions = tuple(
        tuple(number(b, f"{what} region bound") for b in typed(r, list, f"{what} region"))
        for r in typed(raw.get("regions"), list, f"{what} regions"))
    # base inputs are drawn round-robin from the regions, uniformly inside each
    if not regions or not all(len(r) == 2 and -math.inf < r[0] < r[1] < math.inf
                              and r[1] - r[0] < math.inf for r in regions):
        raise ValueError(f"{what} generation regions must be a non-empty list of finite "
                         "[lo, hi] with lo < hi and a finite width")
    seeds = typed(raw.get("failure_seeds", []), list, f"{what} failure_seeds")
    eps = raw.get("zero_epsilon")  # a NaN shift would turn every zero feature into NaN
    return GenerationHints(regions, tuple(number(x, f"{what} failure seed") for x in seeds),
                           None if eps is None else positive(eps, f"{what} zero_epsilon"))


def _parse_entry(raw) -> KernelSpec:
    name = typed(typed(raw, dict, "registry entry").get("name"), str, "registry entry name")
    if not name:
        raise ValueError("a registry entry has an empty name")
    what = f"entry '{name}':"
    spec = KernelSpec(
        name=name, category=typed(raw.get("category"), str, f"{what} category"),
        oracle_bindings=tuple(_parse_binding(b, what) for b in
                              typed(raw.get("oracle_bindings"), list, f"{what} oracle_bindings")),
        generation=_parse_generation(raw["generation"], what) if raw.get("generation") else None)
    if spec.implemented:
        op = KERNEL_OPS[name]
        if not spec.oracle_bindings:
            raise ValueError(f"{what} implemented kernel without oracle")
        if spec.generation is None:
            raise ValueError(f"{what} implemented kernel without generation hints")
        for binding in spec.oracle_bindings:
            if binding.type in COUNTERPART_ORACLES and op.counterpart is None:
                raise ValueError(f"{what} oracle type {binding.type} "
                                 "needs a counterpart the kernel does not have")
        if all(binding.type == 4 for binding in spec.oracle_bindings):
            raise ValueError(f"{what} oracle type 4 alone leaves non-SPD rows unjudged")
    return spec


def registry_load(path) -> Registry:
    """Load and validate a registry file."""
    path = Path(path)
    try:
        raw = document(json.loads(path.read_text()), "registry")
        version = typed(raw.get("version", ""), str, "registry version")
        entries: dict[str, KernelSpec] = {}
        for raw_entry in typed(raw.get("entries", []), list, "registry entries"):
            spec = _parse_entry(raw_entry)
            if spec.name in entries:
                raise ValueError(f"entry '{spec.name}': duplicate name")
            entries[spec.name] = spec
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise RegistryError(f"cannot read registry file {path}: {exc}") from exc
    return Registry(entries=entries, version=version)


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return registry_load(DEFAULT_REGISTRY_PATH)

