"""The shipped seeded-bug corpus.

Ten programs each embed one numerical-instability pattern (annotated with its
expected failure class in metadata), plus one clean program with no reachable
failure. Input bounds encode the realistic value scales of each program.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from safuzz.fuzzer import scan_for_unstable
from safuzz.program import ProgramSpec, program_parse
from safuzz.registry import Registry, default_registry

CORPUS_DIR = Path(__file__).parent / "data" / "corpus"


def corpus_manifest(registry: Optional[Registry] = None) -> list[ProgramSpec]:
    """All shipped corpus programs, in stable (filename) order."""
    reg = registry or default_registry()
    return [program_parse(p, reg) for p in sorted(CORPUS_DIR.glob("*.json"))]


def corpus_kernels() -> list[str]:
    """Kernels appearing as unstable sites anywhere in the shipped registry's corpus."""
    reg = default_registry()
    names: set[str] = set()
    for spec in corpus_manifest(reg):
        scan = scan_for_unstable(spec.to_graph(reg), reg)
        names.update(site.kernel for site in scan.sites)
    return sorted(names)
