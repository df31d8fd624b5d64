"""Every option under src/safuzz is set by the program.

An option is a parameter with a default of a function or method under
src/safuzz, or a field with a default of a `*Config` dataclass. It counts as
set when some call in src/safuzz, scripts or perfbench passes it, by keyword
or by position; a call passes every keyword through `**` and every later
position through `*`. Calls are matched by the name called, so a class's
`__init__` and a config's fields are matched by the class name, and a bound
method's positions start after `self`. The tests do not count: an option that
only tests set is a second path the pipeline never takes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "safuzz"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# options no program call sets, kept on purpose
EXEMPT = {
    "autodiff.finite_diff_grad.h": "the gradient reference every VJP is checked against",
    "autodiff.finite_diff_grad.seed_adjoint": "the same gradient reference",
    "cli.cli_dispatch.argv": "the test seam: main() parses sys.argv",
    "tensor.Tensor.__array__.dtype": "numpy's __array__ protocol",
    "tensor.Tensor.__array__.copy": "numpy's __array__ protocol",
}


class Option(NamedTuple):
    qualified: str  # module.qualname.parameter
    called_as: str  # the name a call uses
    keyword: str
    position: Optional[int]  # index among the call's positional arguments; None: keyword-only


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _options(module: str, tree: ast.Module) -> list[Option]:
    found: list[Option] = []

    def function(fn, prefix, owner):
        qualname = f"{prefix}.{fn.name}"
        called_as = owner if owner and fn.name == "__init__" else fn.name
        shift = 1 if owner and not _is_static(fn) else 0
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            found.append(Option(f"{qualname}.{arg.arg}", called_as, arg.arg, index - shift))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found.append(Option(f"{qualname}.{arg.arg}", called_as, arg.arg, None))

    def config_fields(cls, prefix):
        fields = [s for s in cls.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        for index, stmt in enumerate(fields):
            if stmt.value is not None:
                found.append(Option(f"{prefix}.{cls.name}.{stmt.target.id}", cls.name,
                                    stmt.target.id, index))

    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node, prefix, owner)
                visit(node.body, f"{prefix}.{node.name}", None)
            elif isinstance(node, ast.ClassDef):
                if node.name.endswith("Config"):
                    config_fields(node, prefix)
                visit(node.body, f"{prefix}.{node.name}", node.name)

    visit(tree.body, module, None)
    return found


def _calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out.append((func.id, node))
            elif isinstance(func, ast.Attribute):
                out.append((func.attr, node))
    return out


def _passes(call: ast.Call, option: Option) -> bool:
    if any(k.arg in (option.keyword, None) for k in call.keywords):
        return True
    if option.position is None:
        return False
    before = call.args[:option.position + 1]
    return len(call.args) > option.position or any(isinstance(a, ast.Starred) for a in before)


def _unset(options: list[Option], calls: list[tuple[str, ast.Call]]) -> list[str]:
    by_name: dict[str, list[ast.Call]] = {}
    for name, call in calls:
        by_name.setdefault(name, []).append(call)
    return sorted(o.qualified for o in options
                  if not any(_passes(c, o) for c in by_name.get(o.called_as, ())))


def program_options() -> tuple[list[Option], list[tuple[str, ast.Call]]]:
    options, calls = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == PACKAGE:
            options += _options(path.stem, tree)
        calls += _calls(tree)
    return options, calls


def test_every_option_is_set_by_the_program():
    options, calls = program_options()
    assert [name for name in _unset(options, calls) if name not in EXEMPT] == []


def test_exemptions_name_existing_options():
    options, _ = program_options()
    assert set(EXEMPT) <= {o.qualified for o in options}


def test_keywords_positions_and_classes_count():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2):\n"
        "    pass\n"
        "def g(a, b=1, c=2):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    def m(self, z=0):\n"
        "        pass\n"
        "@dataclass\n"
        "class RunConfig:\n"
        "    n: int\n"
        "    size: int = 3\n"
        "    mode: str = 'a'\n"
        "f(0, 5)\n"
        "g(0, *rest)\n"
        "K(1, y=2).m(4)\n"
        "RunConfig(1, 2)\n"
    )
    assert _unset(_options("m", tree), _calls(tree)) == ["m.RunConfig.mode", "m.f.c"]
