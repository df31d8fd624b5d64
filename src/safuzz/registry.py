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

    def names(self) -> list[str]:
        return list(self.entries.keys())


def _number(value) -> float:
    """A JSON number as a float: a string, or a JSON true or false (a bool), is a TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _parse_binding(raw: dict, name: str) -> OracleBinding:
    otype = raw.get("type")
    if type(otype) is not int or otype not in ORACLE_TYPES:
        raise RegistryError(f"entry '{name}': unknown oracle type tag {otype!r}")
    # type(), not isinstance: a JSON true or false is a bool, not a number
    lo, hi = raw.get("lo"), raw.get("hi")
    if any(bound is not None and type(bound) not in (int, float) for bound in (lo, hi)):
        raise RegistryError(f"entry '{name}': oracle bounds lo and hi must be numbers")
    if otype == 2 and (lo is None or hi is None or not lo < hi):
        raise RegistryError(f"entry '{name}': range oracle needs lo < hi")
    tol = raw.get("tolerance", 1e-6)
    if type(tol) not in (int, float) or not 0 < tol < math.inf:  # NaN fails both, inf one
        raise RegistryError(f"entry '{name}': tolerance must be positive and finite")
    return OracleBinding(type=otype, lo=lo, hi=hi, tolerance=float(tol))


def _parse_entry(raw: dict) -> KernelSpec:
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise RegistryError(f"entry with missing name: {raw!r}")
    try:
        category = raw["category"]
        if not isinstance(category, str):
            raise RegistryError(f"entry '{name}': category must be a string")
        bindings = tuple(_parse_binding(b, name) for b in raw["oracle_bindings"])
        gen_raw = raw.get("generation")
        gen = None
        if gen_raw:
            eps = gen_raw.get("zero_epsilon")
            gen = GenerationHints(
                regions=tuple((_number(lo), _number(hi)) for lo, hi in gen_raw["regions"]),
                failure_seeds=tuple(map(_number, gen_raw.get("failure_seeds", []))),
                zero_epsilon=None if eps is None else _number(eps),
            )
        spec = KernelSpec(name=name, category=category, oracle_bindings=bindings, generation=gen)
    # float() of an int past a double's range is an OverflowError
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise RegistryError(f"entry '{name}': malformed field ({exc})") from exc
    # base inputs are drawn round-robin from the regions, uniformly inside each
    if gen is not None and (not gen.regions or not all(
            -math.inf < lo < hi < math.inf and hi - lo < math.inf for lo, hi in gen.regions)):
        raise RegistryError(f"entry '{name}': generation regions must be a non-empty "
                            "list of finite [lo, hi] with lo < hi and a finite width")
    # a NaN shift would turn every zero feature into NaN
    if gen is not None and gen.zero_epsilon is not None and not 0 < gen.zero_epsilon < math.inf:
        raise RegistryError(f"entry '{name}': zero_epsilon must be positive and finite")
    if spec.implemented:
        op = KERNEL_OPS[name]
        if not spec.oracle_bindings:
            raise RegistryError(f"entry '{name}': implemented kernel without oracle")
        if gen is None:
            raise RegistryError(f"entry '{name}': implemented kernel without generation hints")
        for binding in spec.oracle_bindings:
            if binding.type in COUNTERPART_ORACLES and op.counterpart is None:
                raise RegistryError(f"entry '{name}': oracle type {binding.type} "
                                    "needs a counterpart the kernel does not have")
        if all(binding.type == 4 for binding in spec.oracle_bindings):
            raise RegistryError(f"entry '{name}': oracle type 4 alone leaves non-SPD rows unjudged")
    return spec


def registry_load(path) -> Registry:
    """Load and validate a registry file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise RegistryError(f"cannot read registry file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise RegistryError(f"a registry is a JSON object, not {type(raw).__name__}")
    version, raw_entries = raw.get("format_version"), raw.get("entries", [])
    if type(version) is not int or version != 1:
        raise RegistryError(f"unsupported registry format_version {version!r}")
    if not isinstance(raw_entries, list) or not all(isinstance(e, dict) for e in raw_entries):
        raise RegistryError("registry entries must be a list of objects")
    entries: dict[str, KernelSpec] = {}
    for raw_entry in raw_entries:
        spec = _parse_entry(raw_entry)
        if spec.name in entries:
            raise RegistryError(f"entry '{spec.name}': duplicate name")
        entries[spec.name] = spec
    return Registry(entries=entries, version=str(raw.get("version", "")))


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return registry_load(DEFAULT_REGISTRY_PATH)

