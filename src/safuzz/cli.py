"""Command-line interface.

Subcommands: list-functions, gen-data, train, scan, fuzz, bench. One loop
over (seed, program), _runs, serves fuzz, bench and compare_guidance.py.
Exit codes: 0 success, 1 bugs found (fuzz), 2 usage error, 3 internal
error, with its traceback on stderr (EXIT_CODES, also in --help).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from safuzz import __version__
from safuzz.corpus import corpus_manifest
from safuzz.datagen import GenerationConfig, build_dataset, dataset_load, dataset_save
from safuzz.errors import SafuzzError
from safuzz.forest import describe_scores, model_load, model_save, train_forest
from safuzz.fuzzer import FuzzConfig, fuzz_program, scan_for_unstable
from safuzz.program import ProgramSpec, program_parse
from safuzz.registry import default_registry
from safuzz.report import ProgramReport, Report, report_emit

EXIT_CODES = ("exit codes: 0 success, 1 bugs found (fuzz), 2 usage error, "
              "3 internal error, with its traceback on stderr")


def parse_ints(text: str, sep: str, what: str, example: str) -> list[int]:
    try:
        return [int(p) for p in text.split(sep)]
    except ValueError:
        raise SafuzzError(f"cannot parse {what} {text!r}; use forms like {example}") from None


def load_models(models_dir: str):
    path = Path(models_dir)
    if not path.is_dir():
        problem = "is not a directory" if path.exists() else "does not exist"
        raise SafuzzError(f"models directory {models_dir!r} {problem}")
    models = [model_load(p) for p in sorted(path.glob("*.json"))]
    if not models:
        raise SafuzzError(f"no model files found under {models_dir!r}")
    return models


def _cmd_list_functions(args) -> int:
    reg = default_registry()
    for name, spec in reg.entries.items():
        marker = "implemented" if spec.implemented else "metadata-only"
        print(f"{name}\t{spec.category}\t{marker}")
    return 0


def _cmd_gen_data(args) -> int:
    shape = tuple(parse_ints(args.shape.lower(), "x", "shape", "3x3"))
    config = GenerationConfig(shape=shape, seed=args.seed, target_size=args.samples)
    dataset = build_dataset(args.function, config)
    dataset_save(dataset, args.out)
    counts = dataset.class_counts()
    print(f"{args.function}: {len(dataset)} of {config.target_size} samples, "
          f"classes {counts} -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = dataset_load(args.dataset)
    forest, metrics = train_forest(dataset, tree_count=args.trees, seed=args.seed,
                                   test_split=args.test_split)
    model_save(forest, args.out)
    print(
        f"{dataset.kernel}: {describe_scores(metrics)}, "
        f"training time {metrics['train_time_seconds'] / 60.0:.3f} min -> {args.out}"
    )
    return 0


def _cmd_scan(args) -> int:
    reg = default_registry()
    spec = program_parse(args.program, reg)
    scan = scan_for_unstable(spec.to_graph(reg), reg)
    for site in scan.sites:
        print(f"site {site.node_id}: {site.kernel} (entry {site.entry_node})")
    for diag in scan.diagnostics:
        print(f"diagnostic: {diag}")
    if not scan.sites and not scan.diagnostics:
        print("no unstable functions found")
    return 0


def _guided(reg, models_dir: str):
    """The paper's strategy: fuzz_program with the models under models_dir."""
    models = load_models(models_dir)
    return lambda graph, config: fuzz_program(graph, reg, models, config)


def _runs(reg, strategy, specs: list[ProgramSpec], seeds: list[int], args):
    """Each program searched at each seed, seed-major, one ProgramReport per
    run; strategy(graph, config) returns a driver's (results, diagnostics)."""
    for seed in seeds:
        for spec in specs:
            config = FuzzConfig(timeout=args.timeout, rate=spec.rate, seed=seed,
                                max_iters=args.max_iters)
            results, diagnostics = strategy(spec.to_graph(reg), config)
            yield ProgramReport(program=spec.name, seed=seed,
                                expected_failure_class=spec.expected_failure_class,
                                results=results, diagnostics=diagnostics)


def _cmd_fuzz(args) -> int:
    reg = default_registry()
    spec = program_parse(args.program, reg)
    run, = _runs(reg, _guided(reg, args.models), [spec], [args.seed], args)
    report = Report(
        registry_version=reg.version,
        config={"timeout": args.timeout, "rate": spec.rate, "seed": args.seed,
                "max_iters": args.max_iters},
        programs=[run],
    )
    if args.out:
        report_emit(report, args.out)
    bugs = 0
    for result in run.results:
        cls = result.verdict.failure_class.value if result.found else "-"
        print(f"{spec.name}/{result.site.node_id} [{result.site.kernel}]: "
              f"{result.status} class={cls} iterations={result.iterations} "
              f"time={result.wall_time:.3f}s")
        bugs += int(result.found)
    for diag in run.diagnostics:
        print(f"diagnostic: {diag}")
    return 1 if bugs else 0


def _cmd_bench(args) -> int:
    reg = default_registry()
    guided = _guided(reg, args.models)
    seeds = parse_ints(args.seeds, ",", "seed list", "0,1,2")
    report = Report(
        registry_version=reg.version,
        config={"timeout": args.timeout, "seeds": seeds, "max_iters": args.max_iters},
    )
    for run in _runs(reg, guided, corpus_manifest(reg), seeds, args):
        report.programs.append(run)
        found = [r for r in run.results if r.found]
        classes = {r.verdict.failure_class.value for r in found}
        status = "found " + "/".join(sorted(classes)) if found else "exhausted"
        print(f"seed {run.seed} {run.program}: {status} "
              f"(expected {run.expected_failure_class or 'none'})")
    totals = report.totals()
    print(f"total bugs: {totals['bugs_found']} "
          f"({totals['bugs_found_by_search']} by search), "
          f"average time: {totals['average_time_seconds']:.4f}s")
    if args.out:
        report_emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safuzz",
        description="soft-assertion guided fuzzing for numerical instability",
        epilog=EXIT_CODES,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-functions", help="print the unstable-function database")

    p = sub.add_parser("gen-data", help="unit-test a kernel into a labeled dataset")
    p.add_argument("--function", required=True)
    p.add_argument("--shape", default="3x3")
    p.add_argument("--samples", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a soft assertion from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--test-split", type=float, default=0.3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scan", help="list unstable sites in a program")
    p.add_argument("program")

    p = sub.add_parser("fuzz", help="search one program for failure-inducing inputs")
    p.add_argument("program")
    p.add_argument("--models", required=True)
    p.add_argument("--timeout", type=float, default=1800.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench", help="run the shipped corpus and emit a summary")
    p.add_argument("--models", required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--out", default=None)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "list-functions": _cmd_list_functions,
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "scan": _cmd_scan,
        "fuzz": _cmd_fuzz,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except SafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program, which must not read as "bugs found"
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
