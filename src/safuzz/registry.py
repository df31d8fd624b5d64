"""The unstable-function database.

The shipped registry carries 61 entries. The 25 "core" entries and 3
"extended" entries (inverse, determinant, remainder) are executable: they
have a forward, a gradient, and at least one bound oracle. The remaining
"metadata" entries record name, category and oracle tags only, so scanning
can still flag them with a no-assertion-available diagnostic.

An entry holds what only the registry knows: tier, category, oracle bindings
and generation hints. Whether a kernel is executable, its arity, params,
counterpart and the operand its soft assertion inspects belong to the op
table (kernels.op_def), and loading checks that an entry agrees with it: the
tier is metadata exactly when the op table has no such kernel, and an
executable kernel bound to oracle type 3, 4 or 5 has a counterpart. Params
come from the call site that runs a kernel, never from its entry. Entries
carry no hand-written safe condition: the bound oracles define where a
kernel fails.
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
    tier: str  # core | extended | metadata
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

    def core_names(self) -> list[str]:
        return [n for n, e in self.entries.items() if e.tier == "core"]

    def names(self) -> list[str]:
        return list(self.entries.keys())


def _parse_binding(raw: dict, name: str) -> OracleBinding:
    otype = raw.get("type")
    if otype not in ORACLE_TYPES:
        raise RegistryError(f"entry '{name}': unknown oracle type tag {otype!r}")
    lo, hi = raw.get("lo"), raw.get("hi")
    if otype == 2:
        if lo is None or hi is None or not lo < hi:
            raise RegistryError(f"entry '{name}': range oracle needs lo < hi")
    tol = float(raw.get("tolerance", 1e-6))
    if not 0 < tol < math.inf:  # NaN fails every comparison, inf none
        raise RegistryError(f"entry '{name}': tolerance must be positive and finite")
    return OracleBinding(type=int(otype), lo=lo, hi=hi, tolerance=tol)


def _parse_entry(raw: dict) -> KernelSpec:
    name = raw.get("name")
    if not name or not isinstance(name, str):
        raise RegistryError(f"entry with missing name: {raw!r}")
    try:
        category = raw["category"]
        tier = raw["tier"]
        bindings = tuple(_parse_binding(b, name) for b in raw["oracle_bindings"])
        gen_raw = raw.get("generation")
        gen = None
        if gen_raw:
            eps = gen_raw.get("zero_epsilon")
            gen = GenerationHints(
                regions=tuple((float(lo), float(hi)) for lo, hi in gen_raw["regions"]),
                failure_seeds=tuple(float(s) for s in gen_raw.get("failure_seeds", [])),
                zero_epsilon=None if eps is None else float(eps),
            )
        spec = KernelSpec(name=name, category=category, tier=tier,
                          oracle_bindings=bindings, generation=gen)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RegistryError(f"entry '{name}': malformed field ({exc})") from exc
    # base inputs are drawn round-robin from the regions, uniformly inside each
    if gen is not None and (not gen.regions or not all(
            -math.inf < lo < hi < math.inf for lo, hi in gen.regions)):
        raise RegistryError(f"entry '{name}': generation regions must be a non-empty "
                            "list of finite [lo, hi] with lo < hi")
    # a NaN shift would turn every zero feature into NaN
    if gen is not None and gen.zero_epsilon is not None and not 0 < gen.zero_epsilon < math.inf:
        raise RegistryError(f"entry '{name}': zero_epsilon must be positive and finite")
    if tier not in (("core", "extended") if spec.implemented else ("metadata",)):
        raise RegistryError(f"entry '{name}': tier {tier!r} but the op table "
                            f"{'has' if spec.implemented else 'has no'} such kernel")
    if spec.implemented:
        op = KERNEL_OPS[name]
        if not spec.oracle_bindings:
            raise RegistryError(f"entry '{name}': implemented kernel without oracle")
        if op.vjp is None:
            raise RegistryError(f"entry '{name}': implemented kernel without gradient")
        for binding in spec.oracle_bindings:
            if binding.type in COUNTERPART_ORACLES and op.counterpart is None:
                raise RegistryError(f"entry '{name}': oracle type {binding.type} "
                                    "needs a counterpart the kernel does not have")
    return spec


def registry_load(path) -> Registry:
    """Load and validate a registry file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RegistryError(f"cannot read registry file {path}: {exc}") from exc
    if raw.get("format_version") != 1:
        raise RegistryError(f"unsupported registry format_version {raw.get('format_version')!r}")
    entries: dict[str, KernelSpec] = {}
    for raw_entry in raw.get("entries", []):
        spec = _parse_entry(raw_entry)
        if spec.name in entries:
            raise RegistryError(f"entry '{spec.name}': duplicate name")
        entries[spec.name] = spec
    return Registry(entries=entries, version=str(raw.get("version", "")))


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    reg = registry_load(DEFAULT_REGISTRY_PATH)
    if len(reg.entries) != 61:
        raise RegistryError(f"shipped registry must have 61 entries, found {len(reg.entries)}")
    if len(reg.core_names()) != 25:
        raise RegistryError("shipped registry must mark exactly 25 core kernels")
    return reg

