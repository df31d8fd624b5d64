"""Every function, class and method under src/safuzz is used by the program.

A definition counts as used when a Name, an Attribute or an import alias in
src/safuzz, scripts or perfbench refers to its name outside the definition
itself. Names inside strings do not count, and neither do the tests: code
that only tests call is surface the pipeline does not need.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "safuzz"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# verification references the tests keep on purpose
EXEMPT = {
    "autodiff.finite_diff_grad": "the gradient gate every VJP is checked against",
    "report.strip_time_fields": "pins reports: runs are compared with timing fields removed",
}


def _definitions(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """Non-dunder top-level functions and classes, and every method."""
    found: dict[str, ast.AST] = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found[f"{prefix}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}")

    visit(tree.body, module)
    return found


def _references(tree: ast.Module) -> list[tuple[str, frozenset[int]]]:
    """Each name referred to, with the ids of the definitions enclosing it."""
    refs: list[tuple[str, frozenset[int]]] = []

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.alias):
            refs.extend((part, enclosing) for part in node.name.split("."))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def unreferenced() -> list[str]:
    definitions: dict[str, ast.AST] = {}
    refs: list[tuple[str, frozenset[int]]] = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            definitions.update(_definitions(path.stem, tree))
        refs.extend(_references(tree))
    return [name for name in _unused(definitions, refs) if name not in EXEMPT]


def _unused(definitions: dict[str, ast.AST],
            refs: list[tuple[str, frozenset[int]]]) -> list[str]:
    by_name: dict[str, list[frozenset[int]]] = {}
    for name, enclosing in refs:
        by_name.setdefault(name, []).append(enclosing)
    return sorted(
        qualified for qualified, node in definitions.items()
        if not any(id(node) not in enclosing for enclosing in by_name.get(node.name, ()))
    )


def test_every_definition_is_referenced_outside_itself():
    assert unreferenced() == []


def test_exemptions_name_existing_definitions():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(_definitions(path.stem, ast.parse(path.read_text())))
    assert set(EXEMPT) <= set(defined)


def test_strings_and_self_references_do_not_count():
    tree = ast.parse(
        "def lonely(n):\n"
        "    '''lonely'''\n"
        "    return lonely(n - 1) if n else 'lonely'\n"
        "def used():\n"
        "    return 1\n"
        "x = used()\n"
    )
    assert _unused(_definitions("m", tree), _references(tree)) == ["m.lonely"]


# hooks whose function is already gone: the tracer notes each as "not found"
STALE_HOOKS = {"safuzz.datagen.run_trajectory", "safuzz.datagen.run_oracles",
               "safuzz.fuzzer.forward_eval", "safuzz.fuzzer.run_oracles"}


def test_every_benchmark_hook_finds_its_function(monkeypatch):
    # perfbench's tracer wraps each hook at the name its caller looks it up by and
    # skips a name that is gone, so its metrics read 0; a rename must fail here
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # @dataclass looks its module up
    spec.loader.exec_module(tracing)
    missing = {f"{hook.module}.{hook.attr}" for hook in tracing.HOOKS
               if not hasattr(importlib.import_module(hook.module), hook.attr)}
    assert missing <= STALE_HOOKS
