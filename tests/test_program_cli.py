"""Program files, corpus manifest, reports, the command-line surface and
the end-to-end scripts."""

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from safuzz import cli
from safuzz.cli import cli_dispatch
from safuzz.corpus import CORPUS_DIR, corpus_manifest
from safuzz.errors import GraphParseError
from safuzz.forest import model_load
from safuzz.fuzzer import FuzzConfig, FuzzResult, UnstableSite, fuzz_program, scan_for_unstable
from safuzz.oracles import FailureClass, OracleVerdict
from safuzz.program import program_parse
from safuzz.registry import default_registry
from safuzz.report import ProgramReport, Report, quality_table, report_emit, strip_time_fields


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
FIXTURE_MODELS = FIXTURES / "models"


def write_program(tmp_path, doc, name="prog.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "format_version": 1,
    "name": "minimal",
    "inputs": [{"id": "x", "shape": [2]}],
    "nodes": [{"id": "y", "op": "exp", "inputs": ["x"]}],
    "output": "y",
    "metadata": {},
}


def _input(**fields):
    return {**MINIMAL, "inputs": [{"id": "x", "shape": [2], **fields}]}


def _node(**fields):
    return {**MINIMAL, "nodes": [{"id": "y", "op": "exp", "inputs": ["x"], **fields}]}


# program files that exited 3 with a traceback under `scan` and `fuzz`, or
# loaded misread and failed mid-search, or were silently misread
BAD_PROGRAMS = {
    "top_level_list": [1],
    "one_bound": _input(bounds=[1.0]),
    "input_not_object": {**MINIMAL, "inputs": [[1]]},
    "metadata_list": {**MINIMAL, "metadata": [1]},
    "text_rate": {**MINIMAL, "metadata": {"rate": "fast"}},
    "three_bounds": _input(bounds=[0, 1, 99]),
    "empty_bounds": _input(bounds=[]),
    "boolean_bound": _input(bounds=[False, 1]),
    "infinite_bound": _input(bounds=[0, math.inf]),
    "infinite_width": _input(bounds=[-1e308, 1e308]),
    "negative_dimension": _input(shape=[-1]),
    "zero_dimension": _input(shape=[0]),
    "float_dimension": _input(shape=[2.7]),
    "boolean_dimension": _input(shape=[True, 2]),
    "text_clamp": _input(bounds=[0, 1], clamp="no"),
    "clamp_without_bounds": _input(clamp=True),
    "text_node_inputs": _node(inputs="x"),
    "listed_params": _node(op="pow", params=[["exponent", 5]]),
    "empty_constant": {**MINIMAL, "nodes": [
        {"id": "c", "op": "constant", "params": {"value": []}},
        {"id": "y", "op": "exp", "inputs": ["c"]}]},
    "zero_column_linear": {**MINIMAL, "nodes": [
        {"id": "l", "op": "linear", "inputs": ["x"], "params": {"weight": [[], []], "bias": []}},
        {"id": "y", "op": "exp", "inputs": ["l"]}]},
    "zero_width_conv_kernel": {**MINIMAL, "inputs": [{"id": "x", "shape": [3, 3]}], "nodes": [
        {"id": "c", "op": "Conv2d", "inputs": ["x"], "params": {"kernel": [[]]}},
        {"id": "y", "op": "exp", "inputs": ["c"]}]},
    # float() of these raised a raw OverflowError: exit 3 with a traceback
    "huge_bound": _input(bounds=[0, 10 ** 400]),
    "huge_rate": {**MINIMAL, "metadata": {"rate": 10 ** 400}},
    "huge_int_param": {**MINIMAL, "nodes": [
        {"id": "s", "op": "scale", "inputs": ["x"], "params": {"factor": 10 ** 400}},
        {"id": "y", "op": "exp", "inputs": ["s"]}]},
    "listed_input_id": _input(id=["x"]),
    "listed_op": _node(op=["exp"]),
    "listed_output": {**MINIMAL, "output": ["y"]},
    "numeric_inputs": {**MINIMAL, "inputs": 5},
    "numeric_nodes": {**MINIMAL, "nodes": 5},
    "null_nodes": {**MINIMAL, "nodes": None},
    "boolean_version": {**MINIMAL, "format_version": True},
    "float_version": {**MINIMAL, "format_version": 1.0},
    "listed_name": {**MINIMAL, "name": [1]},
    "numeric_failure_class": {**MINIMAL, "metadata": {"expected_failure_class": 7}},
    "unknown_failure_class": {**MINIMAL, "metadata": {"expected_failure_class": "Overflow"}},
}


class TestProgramParse:
    def test_minimal_program(self, tmp_path):
        spec = program_parse(write_program(tmp_path, MINIMAL))
        assert spec.name == "minimal"
        graph = spec.to_graph()
        assert graph.shapes["y"] == (2,)

    def test_cycle_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["nodes"] = [
            {"id": "a", "op": "add", "inputs": ["x", "b"]},
            {"id": "b", "op": "exp", "inputs": ["a"]},
        ]
        doc["output"] = "b"
        with pytest.raises(GraphParseError, match="'a'"):
            program_parse(write_program(tmp_path, doc))

    def test_unknown_op_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["nodes"] = [{"id": "y", "op": "mystery", "inputs": ["x"]}]
        with pytest.raises(GraphParseError, match="mystery"):
            program_parse(write_program(tmp_path, doc))

    @pytest.mark.parametrize("node", [
        {"id": "y", "op": "linear", "inputs": ["x"], "params": {"bias": [0.0, 0.0]}},
        {"id": "y", "op": "linear", "inputs": ["x"], "params": {"weight": [[1, 0], [0, 1]]}},
        {"id": "y", "op": "linear", "inputs": ["x"],
         "params": {"weight": "eye", "bias": [0.0, 0.0]}},
        {"id": "y", "op": "linear", "inputs": ["x"],
         "params": {"weight": [[1, 0], [0, 1]], "bias": [0.0, 0.0, 0.0]}},
        {"id": "y", "op": "constant", "inputs": []},
        {"id": "y", "op": "reshape", "inputs": ["x"]},
        {"id": "y", "op": "reshape", "inputs": ["x"], "params": {"shape": [2.0]}},
        {"id": "y", "op": "reshape", "inputs": ["x"], "params": {"shape": [-1, -2]}},
        {"id": "y", "op": "scale", "inputs": ["x"]},
        {"id": "y", "op": "scale", "inputs": ["x"], "params": {"factor": "two"}},
        {"id": "y", "op": "pow", "inputs": ["x"], "params": {"exponent": [2.0]}},
        {"id": "y", "op": "exp", "inputs": ["x"], "params": "none"},
        {"id": "y", "op": "linear", "inputs": ["s"],
         "params": {"weight": [[1.0]], "bias": [0.0]}},
        # array params that np.asarray used to read as numbers
        {"id": "y", "op": "linear", "inputs": ["x"],
         "params": {"weight": [["1", "0"], ["0", "1"]], "bias": [0.0, 0.0]}},
        {"id": "y", "op": "linear", "inputs": ["x"],
         "params": {"weight": [[True, False], [False, True]], "bias": [0.0, 0.0]}},
        {"id": "y", "op": "linear", "inputs": ["x"],
         "params": {"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [False, 1]}},
        {"id": "y", "op": "Conv2d", "inputs": ["m"], "params": {"kernel": [["1", "1"]]}},
        {"id": "y", "op": "CrossEntropy", "inputs": ["x"], "params": {"target": [True, False]}},
        {"id": "y", "op": "constant", "inputs": [], "params": {"value": ["1", "2"]}},
    ], ids=["linear_no_weight", "linear_no_bias", "linear_text_weight",
            "linear_wide_bias", "constant_no_value", "reshape_no_shape",
            "reshape_float_shape", "reshape_negative_shape", "scale_no_factor", "scale_text_factor",
            "pow_list_exponent", "params_not_a_mapping", "linear_rank_0_input",
            "linear_text_weights", "linear_boolean_weights", "linear_boolean_bias",
            "conv2d_text_kernel", "cross_entropy_boolean_target", "constant_text_value"])
    def test_missing_or_ill_typed_params_rejected(self, tmp_path, node):
        inputs = [{"id": "x", "shape": [2]}, {"id": "s", "shape": []}, {"id": "m", "shape": [2, 2]}]
        doc = dict(MINIMAL, inputs=inputs, nodes=[node])
        with pytest.raises(GraphParseError, match="'y'|malformed node"):
            program_parse(write_program(tmp_path, doc))

    @pytest.mark.parametrize("doc, message", [
        (BAD_PROGRAMS["top_level_list"], "program [1] is not a JSON object"),
        (BAD_PROGRAMS["one_bound"], "input 'x' bounds [1.0] are not [lo, hi]"),
        (BAD_PROGRAMS["input_not_object"], "input [1] is not a JSON object"),
        ({**MINIMAL, "nodes": [[1]]}, "node [1] is not a JSON object"),
        (BAD_PROGRAMS["metadata_list"], "metadata [1] is not a JSON object"),
        (BAD_PROGRAMS["text_rate"], "metadata rate 'fast' is not a positive finite number"),
        ({**MINIMAL, "metadata": {"rate": 0}}, "metadata rate 0 is not"),
        ({**MINIMAL, "metadata": {"rate": -1.0}}, "metadata rate -1.0 is not"),
        ({**MINIMAL, "metadata": {"rate": float("inf")}}, "metadata rate inf is not"),
        ({**MINIMAL, "metadata": {"rate": float("nan")}}, "metadata rate nan is not"),
        ({**MINIMAL, "metadata": {"rate": True}}, "metadata rate True is not"),
        (BAD_PROGRAMS["three_bounds"], "input 'x' bounds [0, 1, 99] are not [lo, hi]"),
        (BAD_PROGRAMS["empty_bounds"], "input 'x' bounds [] are not [lo, hi]"),
        (BAD_PROGRAMS["boolean_bound"], "input 'x' bound False is not a number"),
        (BAD_PROGRAMS["infinite_bound"], "input 'x': bounds must be finite with lo < hi"),
        (BAD_PROGRAMS["infinite_width"], "input 'x': bounds must be finite with lo < hi "
                                         "and a finite width"),
        (BAD_PROGRAMS["negative_dimension"],
         "input 'x' shape [-1] is not a list of ints of at least 1"),
        (BAD_PROGRAMS["zero_dimension"], "input 'x' shape [0] is not a list of ints of at least 1"),
        (BAD_PROGRAMS["float_dimension"],
         "input 'x' shape [2.7] is not a list of ints of at least 1"),
        (BAD_PROGRAMS["boolean_dimension"],
         "input 'x' shape [True, 2] is not a list of ints of at least 1"),
        (_input(shape="2"), "input 'x' shape '2' is not a list of ints of at least 1"),
        (BAD_PROGRAMS["text_clamp"], "input 'x' clamp 'no' is not true or false"),
        (BAD_PROGRAMS["clamp_without_bounds"], "input 'x': a clamp needs bounds"),
        (BAD_PROGRAMS["text_node_inputs"], "node 'y' inputs 'x' is not a JSON list"),
        (_node(inputs=[1]), "node 'y' input 1 is not a string"),
        (BAD_PROGRAMS["listed_params"],
         "node 'y' params [['exponent', 5]] is not a JSON object"),
        (BAD_PROGRAMS["empty_constant"], "node 'c': every dimension must be at least 1, got [0]"),
        (BAD_PROGRAMS["zero_column_linear"],
         "node 'l': every dimension must be at least 1, got [0]"),
        # it used to load with an inferred (3, 4) shape, larger than its input
        (BAD_PROGRAMS["zero_width_conv_kernel"],
         "node 'c': conv2d kernel (1, 0) has a dimension below 1"),
        (BAD_PROGRAMS["huge_bound"], "input 'x' bound 100000000000000000...0000000000000000000 "
                                     "is beyond a double's range"),
        (BAD_PROGRAMS["huge_rate"], "metadata rate 100000000000000000...0000000000000000000 "
                                    "is beyond a double's range"),
        (BAD_PROGRAMS["huge_int_param"], "node 's': param 'factor' "
                                         "100000000000000000...0000000000000000000 "
                                         "is beyond a double's range"),
        (BAD_PROGRAMS["listed_input_id"], "input id ['x'] is not a string"),
        (BAD_PROGRAMS["listed_op"], "node 'y' op ['exp'] is not a string"),
        (_node(id=5), "node id 5 is not a string"),
        (BAD_PROGRAMS["listed_output"], "output ['y'] is not a string"),
        (BAD_PROGRAMS["numeric_inputs"], "inputs 5 is not a JSON list"),
        (BAD_PROGRAMS["numeric_nodes"], "nodes 5 is not a JSON list"),
        (BAD_PROGRAMS["null_nodes"], "nodes None is not a JSON list"),
        (BAD_PROGRAMS["boolean_version"], "unsupported program format_version True"),
        (BAD_PROGRAMS["float_version"], "unsupported program format_version 1.0"),
        (BAD_PROGRAMS["listed_name"], "name [1] is not a string"),
        (BAD_PROGRAMS["numeric_failure_class"],
         "metadata expected_failure_class 7 is no failure class"),
        (BAD_PROGRAMS["unknown_failure_class"],
         "metadata expected_failure_class 'Overflow' is no failure class"),
    ], ids=["top_level_list", "one_bound", "input_not_object", "node_not_object",
            "metadata_list", "text_rate", "zero_rate", "negative_rate", "infinite_rate",
            "nan_rate", "boolean_rate", "three_bounds", "empty_bounds", "boolean_bound",
            "infinite_bound", "infinite_width", "negative_dimension", "zero_dimension",
            "float_dimension", "boolean_dimension", "text_shape", "text_clamp",
            "clamp_without_bounds", "text_node_inputs", "numeric_node_input", "listed_params",
            "empty_constant", "zero_column_linear", "zero_width_conv_kernel", "huge_bound",
            "huge_rate", "huge_int_param", "listed_input_id", "listed_op", "numeric_node_id",
            "listed_output", "numeric_inputs", "numeric_nodes", "null_nodes", "boolean_version",
            "float_version", "listed_name", "numeric_failure_class", "unknown_failure_class"])
    def test_malformed_program_file_rejected(self, tmp_path, doc, message):
        # each used to escape as an untyped error or load and fail later
        with pytest.raises(GraphParseError, match=re.escape(message)):
            program_parse(write_program(tmp_path, doc))

    def test_int_of_more_digits_than_python_converts_rejected(self, tmp_path):
        # it used to escape as a bare ValueError: exit 3 with a traceback
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(_node(op="pow", params={"exponent": 0})).replace(
            '"exponent": 0', '"exponent": ' + "9" * 5000))
        with pytest.raises(GraphParseError, match="cannot read program file"):
            program_parse(path)
        assert cli_dispatch(["scan", str(path)]) == 2

    def test_rate_defaults_to_1(self, tmp_path):
        assert program_parse(write_program(tmp_path, MINIMAL)).rate == 1.0

    def test_rate_read_as_a_float_once(self, tmp_path):
        spec = program_parse(write_program(tmp_path, {**MINIMAL, "metadata": {"rate": 2}}))
        assert type(spec.metadata["rate"]) is float and spec.rate == 2.0

    def test_shape_mismatch_points_at_node(self, tmp_path):
        doc = dict(MINIMAL)
        doc["inputs"] = [{"id": "x", "shape": [2]}, {"id": "w", "shape": [3]}]
        doc["nodes"] = [{"id": "y", "op": "add", "inputs": ["x", "w"]}]
        with pytest.raises(GraphParseError, match="'y'"):
            program_parse(write_program(tmp_path, doc))


class TestCorpus:
    def test_manifest_size(self):
        programs = corpus_manifest()
        assert len(programs) >= 10

    def test_every_buggy_program_annotated(self):
        buggy = [p for p in corpus_manifest() if p.expected_failure_class]
        assert len(buggy) >= 10
        valid = {c.value for c in FailureClass}
        for spec in buggy:
            assert spec.expected_failure_class in valid

    def test_one_clean_program(self):
        clean = [p for p in corpus_manifest() if not p.expected_failure_class]
        assert len(clean) == 1

    def test_fig1_transport_scans_to_cosine_site(self):
        spec = [p for p in corpus_manifest() if p.name == "fig1_cosine_transport"][0]
        scan = scan_for_unstable(spec.to_graph())
        assert [s.kernel for s in scan.sites] == ["CosineSimilarity"]

    def test_expected_classes_cover_variety(self):
        classes = {p.expected_failure_class for p in corpus_manifest()
                   if p.expected_failure_class}
        assert {"NaNorINF", "ReferenceMismatch", "WidthMismatch"} <= classes


class TestReport:
    def _report(self):
        site = UnstableSite("y", "exp", "x", "x")
        found = FuzzResult(
            site=site, verdict=OracleVerdict(FailureClass.NAN_OR_INF, "inf"),
            failing_input={"x": [89.0]}, iterations=10, wall_time=0.5,
        )
        return Report(
            registry_version="v", config={"seed": 0},
            programs=[ProgramReport(program="p", seed=0,
                                    expected_failure_class="NaNorINF",
                                    results=[found])],
        )

    def test_totals_aggregate_entries(self, tmp_path):
        doc = report_emit(self._report(), tmp_path / "r.json")
        assert doc["totals"]["bugs_found"] == 1
        assert doc["totals"]["average_time_seconds"] == pytest.approx(0.5)

    def test_empty_run_zero_totals(self, tmp_path):
        doc = report_emit(Report(registry_version="v", config={}),
                          tmp_path / "r.json")
        assert doc["totals"] == {"bugs_found": 0, "bugs_found_by_search": 0,
                                 "average_time_seconds": 0.0}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        doc = report_emit(self._report(), path)
        assert json.loads(path.read_text()) == doc

    def test_failure_class_recorded(self, tmp_path):
        doc = report_emit(self._report(), tmp_path / "r.json")
        assert doc["programs"][0]["sites"][0]["failure_class"] == "NaNorINF"

    def test_strip_time_fields(self):
        doc = {"timestamp": "t", "wall_time_seconds": 1.0,
               "nested": [{"average_time_seconds": 2.0, "keep": 1}], "keep": 2}
        assert strip_time_fields(doc) == {"nested": [{"keep": 1}], "keep": 2}


class TestQualityTable:
    FAIL = OracleVerdict(FailureClass.NAN_OR_INF, "inf")

    @staticmethod
    def _runs(program, *seeds_results):
        return [ProgramReport(program=program, seed=seed, expected_failure_class="NaNorINF",
                              results=results) for seed, results in enumerate(seeds_results)]

    def test_an_exhausted_run_counts_only_in_runs(self):
        site = UnstableSite("y", "exp", "x", "x")
        runs = self._runs("p", [FuzzResult(site, verdict=self.FAIL, iterations=40)],
                          [FuzzResult(site, iterations=2000)],
                          [FuzzResult(site, verdict=self.FAIL, iterations=10)])
        row, = quality_table({"guided": runs})
        # the budget of the exhausted run is no iteration to found: the median
        # of (10, 40, 2000) would be 40
        assert row == {"program": "p", "node": "y", "strategy": "guided", "runs": 3,
                       "found": 2, "found_at_init": 0, "failed_at_init": 0,
                       "iterations_to_found": [10, 40], "median_iterations_to_found": 25.0}
        odd = self._runs("p", *[[FuzzResult(site, verdict=self.FAIL, iterations=i)]
                                for i in (3, 1, 2)])
        assert quality_table({"guided": odd})[0]["median_iterations_to_found"] == 2.0
        nothing = quality_table({"random": self._runs("p", [FuzzResult(site)])})
        assert nothing[0]["median_iterations_to_found"] is None

    def test_a_failing_initial_input_that_ends_exhausted(self):
        # power_overflow's guided search at seed 16: the initial input fails, and the
        # search never judges a failing input
        site = UnstableSite("y", "pow", "x", "x")
        runs = self._runs("power_overflow",
                          [FuzzResult(site, iterations=2000, failed_at_init=True)],
                          [FuzzResult(site, verdict=self.FAIL, iterations=1,
                                      failed_at_init=True)])
        row, = quality_table({"guided": runs})
        assert (row["found"], row["found_at_init"], row["failed_at_init"]) == (1, 1, 2)
        assert row["iterations_to_found"] == [1]

    def test_one_row_per_site_strategy_and_program_sorted(self):
        sites = [UnstableSite(node, kernel, "x", "x")
                 for node, kernel in (("sq", "square"), ("s", "sum"), ("y", "sqrt"))]
        l2 = self._runs("l2_norm_overflow", [FuzzResult(site, verdict=self.FAIL, iterations=1,
                                                        failed_at_init=True) for site in sites])
        exp = self._runs("exp_overflow", [FuzzResult(UnstableSite("y", "exp", "x", "x"))])
        table = quality_table({"random": l2 + exp, "guided": l2})
        assert [(r["program"], r["node"], r["strategy"]) for r in table] == [
            ("exp_overflow", "y", "random"),
            *[("l2_norm_overflow", node, strategy)
              for node in ("s", "sq", "y") for strategy in ("guided", "random")],
        ]
        assert all(r["runs"] == r["found"] == r["found_at_init"] == 1 for r in table[1:])


class TestFoundAtInit:
    SITE = UnstableSite("y", "exp", "x", "x")
    FAIL = OracleVerdict(FailureClass.NAN_OR_INF, "inf")

    def test_a_find_whose_initial_input_fails(self):
        # at whatever iteration the search then found a failure
        for iterations in (1, 20):
            assert FuzzResult(self.SITE, verdict=self.FAIL, iterations=iterations,
                              failed_at_init=True).found_at_init
        assert not FuzzResult(self.SITE, verdict=self.FAIL, iterations=2).found_at_init
        assert not FuzzResult(self.SITE, iterations=2000, failed_at_init=True).found_at_init

    def test_a_search_is_found_exactly_when_it_holds_a_verdict(self):
        # the status is read from the verdict, never stored beside it
        exhausted, found = FuzzResult(self.SITE), FuzzResult(self.SITE, verdict=self.FAIL)
        assert (exhausted.found, exhausted.status) == (False, "Exhausted")
        assert (found.found, found.status) == (True, "Found")

    @pytest.mark.parametrize("name, seed, outcome", [
        # the forest votes a direction at a failing initial input, and NoChange
        # some steps later: this counted as found by search
        ("fig1_cosine_transport", 5, ("Found", 19, True, True)),
        ("power_overflow", 15, ("Found", 2, True, True)),
        # the initial input fails, and the search never judges a failing input
        ("power_overflow", 16, ("Exhausted", 2000, True, False)),
    ])
    def test_a_failing_initial_input_is_not_found_by_search(self, name, seed, outcome):
        reg = default_registry()
        spec = next(s for s in corpus_manifest(reg) if s.name == name)
        models = [model_load(path) for path in sorted(FIXTURE_MODELS.glob("*.json"))]
        config = FuzzConfig(rate=spec.rate, seed=seed, max_iters=2000)
        first = fuzz_program(spec.to_graph(reg), reg, models, config)[0][0]
        assert (first.status, first.iterations, first.failed_at_init,
                first.found_at_init) == outcome

    def test_bench_separates_init_from_search(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli_dispatch(["bench", "--models", str(FIXTURE_MODELS), "--seeds", "0",
                             "--max-iters", "2000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        sites = {p["program"]: p["sites"] for p in doc["programs"]}
        l2 = sites["l2_norm_overflow"]
        assert [(s["status"], s["iterations"], s["found_at_init"]) for s in l2] == \
            [("Found", 1, True)] * 3
        exp = sites["exp_overflow"][0]
        assert (exp["status"], exp["iterations"], exp["found_at_init"]) == ("Found", 82, False)
        found = [s for group in sites.values() for s in group if s["status"] == "Found"]
        by_search = sum(not s["found_at_init"] for s in found)
        assert 0 < by_search < len(found)
        assert doc["totals"]["bugs_found"] == len(found)
        assert doc["totals"]["bugs_found_by_search"] == by_search
        assert f"total bugs: {len(found)} ({by_search} by search)," in capsys.readouterr().out


class TestCli:
    def test_list_functions_61_lines(self, capsys):
        assert cli_dispatch(["list-functions"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 61

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_dispatch(["list-functions", "--bogus"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--function", "exp", "--shape", "3x-1"], "dimension below 1"),
        (["gen-data", "--function", "exp", "--shape", "3x0"], "dimension below 1"),
        (["gen-data", "--function", "exp", "--shape", "3xa"], "cannot parse shape"),
        (["bench", "--models", str(FIXTURE_MODELS), "--seeds", "1,,2"],
         "cannot parse seed list"),
        (["train", "--dataset", str(FIXTURES / "datasets" / "square.csv"),
          "--test-split", "1.5"], "test_split"),
        (["fuzz", "prog.json", "--models", str(FIXTURE_MODELS), "--timeout", "nan"],
         "timeout"),
        (["gen-data", "--function", "inverse", "--shape", "3x4"],
         "kernel 'inverse' does not take shape (3, 4): square matrix required"),
    ], ids=["negative_dim", "zero_dim", "not_a_number", "empty_seed", "split_above_one",
            "nan_timeout", "non_square_inverse"])
    def test_bad_values_exit_2_with_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        write_program(tmp_path, MINIMAL)
        assert cli_dispatch([*argv, "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--function", "exp"],
        ["train", "--dataset", str(FIXTURES / "datasets" / "square.csv")],
        ["fuzz", "prog.json", "--models", str(FIXTURE_MODELS)],
        ["bench", "--models", str(FIXTURE_MODELS)],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2_with_error(self, tmp_path, monkeypatch, capsys, argv):
        # numpy's seeding rejects a negative seed: it exited 3 with a traceback
        monkeypatch.chdir(tmp_path)
        write_program(tmp_path, MINIMAL)
        seed = "--seeds=-1" if argv[0] == "bench" else "--seed=-1"
        assert cli_dispatch([*argv, seed, "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, what", [
        (["gen-data", "--function", "exp", "--samples", "300", "--seed", "5"], "dataset"),
        (["train", "--dataset", str(FIXTURES / "datasets" / "square.csv"), "--trees", "2"],
         "model"),
    ], ids=["gen-data", "train"])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, argv, what):
        # opening --out in a missing directory exited 3 with a FileNotFoundError traceback
        out = tmp_path / "missing" / "out"
        assert cli_dispatch([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"cannot write {what} {out}" in err

    def test_internal_error_exits_3_with_its_traceback(self, monkeypatch, capsys):
        # exit 1 means "bugs found"; a fault of the program must not read as that
        def broken(args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "_cmd_list_functions", broken)
        assert cli_dispatch(["list-functions"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: injected fault" in err

    def test_help_lists_the_exit_codes(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ("exit codes: 0 success, 1 bugs found (fuzz), 2 usage error, "
                "3 internal error, with its traceback on stderr") in out

    def test_negative_reshape_dimensions_exit_2(self, tmp_path, capsys):
        # the sizes agree, 3 * 3 == -1 * -9, but no dimension may be negative
        program = write_program(tmp_path, {**MINIMAL, "inputs": [{"id": "x", "shape": [3, 3]}],
                                           "nodes": [{"id": "r", "op": "reshape", "inputs": ["x"],
                                                      "params": {"shape": [-1, -9]}},
                                                     {"id": "y", "op": "exp", "inputs": ["r"]}]})
        for argv in (["scan"], ["fuzz", "--models", str(FIXTURE_MODELS)]):
            assert cli_dispatch([*argv, str(program)]) == 2
            assert "error: node 'r': param 'shape'" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, kernels", [
        ([{"id": "s", "op": "sin", "inputs": ["x"]}, {"id": "t", "op": "tanh", "inputs": ["s"]},
          {"id": "a", "op": "scale", "inputs": ["x"], "params": {"factor": 2.0}},
          {"id": "y", "op": "exp", "inputs": ["a"]}], ["exp"]),
        ([{"id": "s", "op": "sin", "inputs": ["x"]},
          {"id": "y", "op": "exp", "inputs": ["s"]}], []),
    ], ids=["beside_the_site", "under_the_site"])
    def test_fuzz_past_an_op_without_an_implementation(self, tmp_path, capsys, nodes, kernels):
        # sin is in the database with no executable implementation; tanh reads it
        program = write_program(tmp_path, {
            **MINIMAL, "inputs": [{"id": "x", "shape": [3, 3], "bounds": [0, 1], "clamp": True}],
            "nodes": nodes})
        report = tmp_path / "report.json"
        assert cli_dispatch(["fuzz", str(program), "--models", str(FIXTURE_MODELS),
                             "--max-iters", "300", "--out", str(report)]) == 0
        assert "error" not in capsys.readouterr().err
        doc = json.loads(report.read_text())
        assert [site["kernel"] for p in doc["programs"] for site in p["sites"]] == kernels

    def test_scan_prints_sites(self, tmp_path, capsys):
        path = write_program(tmp_path, MINIMAL)
        assert cli_dispatch(["scan", str(path)]) == 0
        assert "exp" in capsys.readouterr().out

    def test_gen_train_fuzz_pipeline(self, tmp_path, capsys):
        data = tmp_path / "exp.csv"
        code = cli_dispatch([
            "gen-data", "--function", "exp", "--shape", "3x3",
            "--samples", "2000", "--seed", "5", "--out", str(data),
        ])
        assert code == 0 and data.exists()

        model_dir = tmp_path / "models"
        model_dir.mkdir()
        code = cli_dispatch([
            "train", "--dataset", str(data), "--trees", "10", "--seed", "42",
            "--test-split", "0.3", "--out", str(model_dir / "exp.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "macro-F1" in out and "min" in out
        # exp has no Decrease samples: per-class F1 and the present-class mean show it
        assert "over present classes" in out and "Decrease 0.0000" in out

        program = write_program(tmp_path, {
            "format_version": 1, "name": "exp_demo",
            "inputs": [{"id": "x", "shape": [3, 3], "bounds": [-10, 10]}],
            "nodes": [{"id": "y", "op": "exp", "inputs": ["x"]}],
            "output": "y", "metadata": {"rate": 1.0},
        })
        report = tmp_path / "report.json"
        code = cli_dispatch([
            "fuzz", str(program), "--models", str(model_dir),
            "--seed", "0", "--timeout", "30", "--out", str(report),
        ])
        assert code == 1  # bugs found
        doc = json.loads(report.read_text())
        assert doc["totals"]["bugs_found"] >= 1

    def test_fuzz_serves_a_forest_trained_at_another_shape(self, tmp_path, capsys):
        # a 2x2 forest has 4 features; the corpus program's 3x3 entry is served
        # 4 quantiles of its 9 values
        data, model_dir = tmp_path / "exp.csv", tmp_path / "models"
        model_dir.mkdir()
        assert cli_dispatch(["gen-data", "--function", "exp", "--shape", "2x2",
                             "--samples", "600", "--seed", "5", "--out", str(data)]) == 0
        assert cli_dispatch(["train", "--dataset", str(data), "--trees", "5",
                             "--out", str(model_dir / "exp.json")]) == 0
        program = Path(__file__).resolve().parents[1] / "src/safuzz/data/corpus/exp_overflow.json"
        code = cli_dispatch(["fuzz", str(program), "--models", str(model_dir), "--seed", "0",
                             "--out", str(tmp_path / "report.json")])
        assert "error" not in capsys.readouterr().err
        assert code in (0, 1)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [site["kernel"] for p in doc["programs"] for site in p["sites"]] == ["exp"]

    def test_fuzz_with_two_models_of_one_kernel_exits_2(self, tmp_path, capsys):
        # the forest used to be picked silently by the site entry's size
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        for name in ("exp.json", "exp_again.json"):
            (model_dir / name).write_bytes((FIXTURE_MODELS / "exp.json").read_bytes())
        program = Path(__file__).resolve().parents[1] / "src/safuzz/data/corpus/exp_overflow.json"
        assert cli_dispatch(["fuzz", str(program), "--models", str(model_dir)]) == 2
        assert "error: more than one model for kernel 'exp'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "fuzz"])
    @pytest.mark.parametrize("name", BAD_PROGRAMS)
    def test_malformed_program_file_exits_2(self, tmp_path, capsys, command, name):
        program = write_program(tmp_path, BAD_PROGRAMS[name])
        models = ["--models", str(FIXTURE_MODELS)] if command == "fuzz" else []
        assert cli_dispatch([command, str(program), *models]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_fuzz_with_reordered_model_classes_exits_2(self, tmp_path, capsys):
        # the list used to load and be ignored: votes are read in Signal order
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        doc = json.loads((FIXTURE_MODELS / "exp.json").read_text())
        doc["classes"].reverse()
        (model_dir / "exp.json").write_text(json.dumps(doc))
        program = Path(__file__).resolve().parents[1] / "src/safuzz/data/corpus/exp_overflow.json"
        assert cli_dispatch(["fuzz", str(program), "--models", str(model_dir)]) == 2
        assert "classes ['Increase', 'Decrease', 'NoChange']" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [["exp"], 5], ids=["list", "number"])
    def test_fuzz_with_a_model_whose_kernel_is_no_string_exits_2(self, tmp_path, capsys, kernel):
        # a list used to load and then crash fuzz with exit 3; a number
        # loaded and its site was skipped without a word
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        doc = json.loads((FIXTURE_MODELS / "exp.json").read_text())
        (model_dir / "exp.json").write_text(json.dumps({**doc, "kernel": kernel}))
        program = Path(__file__).resolve().parents[1] / "src/safuzz/data/corpus/exp_overflow.json"
        assert cli_dispatch(["fuzz", str(program), "--models", str(model_dir)]) == 2
        assert f"kernel {kernel!r} is not a string" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuzz", "train"])
    def test_header_count_past_memory_exits_2(self, tmp_path, capsys, command):
        # a model's feature_len of 10**12 and a dataset's n_samples of 10**15
        # were each taken at their word, and numpy's MemoryError exited 3
        (tmp_path / "models").mkdir()
        if command == "fuzz":
            doc = json.loads((FIXTURE_MODELS / "exp.json").read_text())
            (tmp_path / "models" / "exp.json").write_text(json.dumps({**doc, "feature_len": 10**12}))
            program = CORPUS_DIR / "exp_overflow.json"
            argv = ["fuzz", str(program), "--models", str(tmp_path / "models")]
        else:
            header, records = (FIXTURES / "datasets" / "square.csv").read_text().split("\n", 1)
            dataset = tmp_path / "square.csv"
            dataset.write_text(json.dumps({**json.loads(header), "n_samples": 10**15}) + "\n"
                               + records)
            argv = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "model.json")]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["fuzz", "train"])
    def test_model_or_dataset_file_that_is_a_list_exits_2(self, tmp_path, capsys, command):
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        (model_dir / "list.json").write_text("[1]\n")
        program = write_program(tmp_path, MINIMAL)
        argv = (["fuzz", str(program), "--models", str(model_dir)] if command == "fuzz"
                else ["train", "--dataset", str(model_dir / "list.json"),
                      "--out", str(tmp_path / "model.json")])
        assert cli_dispatch(argv) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_train_without_held_out_samples(self, tmp_path, capsys):
        data = tmp_path / "exp.csv"
        assert cli_dispatch(["gen-data", "--function", "exp", "--shape", "3x3",
                             "--samples", "300", "--seed", "5", "--out", str(data)]) == 0
        code = cli_dispatch(["train", "--dataset", str(data), "--trees", "3",
                             "--test-split", "0", "--out", str(tmp_path / "exp.json")])
        assert code == 0
        assert "exp: no held-out samples" in capsys.readouterr().out

    def test_gen_data_prints_shortfall(self, tmp_path, capsys):
        # remainder's rare flips leave this run at 395 of 600 samples
        code = cli_dispatch(["gen-data", "--function", "remainder", "--samples", "600",
                             "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert "remainder: 395 of 600 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, seed", [
        (["gen-data", "--function", "log", "--samples", "1500"], 0),
        (["train", "--dataset", str(FIXTURES / "datasets" / "square.csv"), "--trees", "2"], 42),
        (["fuzz", "prog.json", "--models", str(FIXTURE_MODELS), "--max-iters", "50"], 0),
        (["bench", "--models", str(FIXTURE_MODELS), "--max-iters", "50"], 0),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_seed_defaults_without_flag(self, tmp_path, monkeypatch, capsys, argv, seed):
        # with no seed flag each command records and runs its default seed
        monkeypatch.chdir(tmp_path)
        write_program(tmp_path, MINIMAL)
        assert cli_dispatch([*argv, "--out", "out.txt"]) in (0, 1)
        text = (tmp_path / "out.txt").read_text()
        if argv[0] == "gen-data":
            assert json.loads(text.splitlines()[0])["config"]["seed"] == seed
        elif argv[0] == "train":
            assert json.loads(text)["seed"] == seed
        else:
            doc = json.loads(text)
            recorded = doc["config"]["seeds"] if argv[0] == "bench" else [doc["config"]["seed"]]
            assert recorded == [seed]
            assert {p["seed"] for p in doc["programs"]} == {seed}

    @pytest.mark.parametrize("name", ["exp_overflow", "fig1_cosine_transport"])
    def test_fuzz_entry_equals_bench_entry(self, tmp_path, bench_seed_1, name):
        # both commands run one loop: a program's entry depends only on its seed
        fuzzed = tmp_path / f"{name}.json"
        assert cli_dispatch(["fuzz", str(CORPUS_DIR / f"{name}.json"),
                             "--models", str(FIXTURE_MODELS), "--seed", "1",
                             "--max-iters", "300", "--out", str(fuzzed)]) == 1
        entry, = strip_time_fields(json.loads(fuzzed.read_text()))["programs"]
        assert entry == next(e for e in bench_seed_1 if e["program"] == name)


@pytest.fixture(scope="module")
def bench_seed_1(tmp_path_factory):
    """The program entries of `safuzz bench --seeds 1 --max-iters 300`, times stripped."""
    benched = tmp_path_factory.mktemp("bench") / "bench.json"
    assert cli_dispatch(["bench", "--models", str(FIXTURE_MODELS), "--seeds", "1",
                         "--max-iters", "300", "--out", str(benched)]) == 0
    return strip_time_fields(json.loads(benched.read_text()))["programs"]


def _script_main(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


class TestTrainModels:
    @pytest.mark.parametrize("args, message", [
        (["--kernels", "exp", "--samples", "0"], "target_size"),
        (["--kernels", "SVD"], "not implemented"),
        (["--kernels", "exp", "--data-seed", "-1"], "seed"),
    ], ids=["zero_samples", "metadata_kernel", "negative_data_seed"])
    def test_usage_errors_exit_2(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.setattr(sys, "argv", ["train_models.py", "--out", str(tmp_path), *args])
        assert _script_main("train_models")() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


    def test_out_that_cannot_be_created_exits_2(self, tmp_path, monkeypatch, capsys):
        # a file where the --out directory must go: mkdir raised out of main with a traceback
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "build"
        monkeypatch.setattr(sys, "argv", ["train_models.py", "--out", str(out), "--kernels", "exp"])
        assert _script_main("train_models")() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"cannot create {out}" in err


class TestCompareGuidance:
    def test_program_without_a_model_is_skipped(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.json").write_bytes((FIXTURE_MODELS / "exp.json").read_bytes())
        monkeypatch.setattr(sys, "argv", ["compare_guidance.py", "--models", str(tmp_path),
                                          "--seeds", "0", "--max-iters", "20"])
        assert _script_main("compare_guidance")() == 0
        captured = capsys.readouterr()
        assert "softmax_logit_blowup         site 'y' (Softmax): no trained model; skipped" \
            in captured.err.splitlines()
        rows = {(r["program"], r["strategy"]) for r in json.loads(captured.out)}
        assert ("softmax_logit_blowup", "random") in rows
        assert ("softmax_logit_blowup", "guided") not in rows
        assert ("exp_overflow", "guided") in rows

    @pytest.mark.parametrize("args, message", [
        (["--models", "missing"], "does not exist"),
        # a model file used to be called a models directory that does not exist
        (["--models", str(FIXTURE_MODELS / "exp.json")], "exp.json' is not a directory"),
        (["--models", "."], "no model files"),
        (["--models", str(FIXTURE_MODELS), "--max-iters", "0"], "max_iters"),
        (["--models", str(FIXTURE_MODELS), "--seeds", "1,,2"], "cannot parse seed list"),
        (["--models", str(FIXTURE_MODELS), "--seeds=-1"], "seed"),
    ], ids=["missing_dir", "model_file", "empty_dir", "zero_iters", "empty_seed", "negative_seed"])
    def test_usage_errors_exit_2(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["compare_guidance.py", *args])
        assert _script_main("compare_guidance")() == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""  # no partial table
