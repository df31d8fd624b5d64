"""Program files, corpus manifest, reports, the command-line surface and
the end-to-end scripts."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from safuzz import cli
from safuzz.cli import cli_dispatch
from safuzz.corpus import corpus_manifest
from safuzz.errors import GraphParseError
from safuzz.fuzzer import FuzzResult, UnstableSite, scan_for_unstable
from safuzz.oracles import FailureClass, OracleVerdict
from safuzz.program import program_parse
from safuzz.report import ProgramReport, Report, report_emit, strip_time_fields


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


class TestProgramParse:
    def test_minimal_program(self, tmp_path):
        spec = program_parse(write_program(tmp_path, MINIMAL))
        assert spec.name == "minimal"
        graph = spec.to_graph()
        assert graph.shape_of("y") == (2,)

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
    ], ids=["linear_no_weight", "linear_no_bias", "linear_text_weight",
            "linear_wide_bias", "constant_no_value", "reshape_no_shape",
            "reshape_float_shape", "reshape_negative_shape", "scale_no_factor", "scale_text_factor",
            "pow_list_exponent", "params_not_a_mapping", "linear_rank_0_input"])
    def test_missing_or_ill_typed_params_rejected(self, tmp_path, node):
        inputs = [{"id": "x", "shape": [2]}, {"id": "s", "shape": []}]
        doc = dict(MINIMAL, inputs=inputs, nodes=[node])
        with pytest.raises(GraphParseError, match="'y'|malformed node"):
            program_parse(write_program(tmp_path, doc))

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
        site = UnstableSite("y", "exp", "x")
        found = FuzzResult(
            site=site, status="Found",
            verdict=OracleVerdict(False, FailureClass.NAN_OR_INF, "inf"),
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


class TestFoundAtInit:
    SITE = UnstableSite("y", "exp", "x")
    FAIL = OracleVerdict(False, FailureClass.NAN_OR_INF, "inf")

    def test_only_a_find_on_the_first_iteration(self):
        assert FuzzResult(self.SITE, "Found", verdict=self.FAIL, iterations=1).found_at_init
        assert not FuzzResult(self.SITE, "Found", verdict=self.FAIL,
                              iterations=2).found_at_init
        assert not FuzzResult(self.SITE, "Exhausted", iterations=1).found_at_init

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
        (["fuzz", "prog.json", "--models", str(FIXTURE_MODELS), "--rate", "-1"], "rate"),
        (["fuzz", "prog.json", "--models", str(FIXTURE_MODELS), "--rate", "inf"], "rate"),
        (["fuzz", "prog.json", "--models", str(FIXTURE_MODELS), "--timeout", "nan"],
         "timeout"),
        (["gen-data", "--function", "inverse", "--shape", "3x4"],
         "kernel 'inverse' does not take shape (3, 4): square matrix required"),
    ], ids=["negative_dim", "zero_dim", "not_a_number", "empty_seed", "split_above_one",
            "negative_rate", "infinite_rate", "nan_timeout", "non_square_inverse"])
    def test_bad_values_exit_2_with_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        write_program(tmp_path, MINIMAL)
        assert cli_dispatch([*argv, "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out.json").exists()

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

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SAF_SEED", "123")
        data = tmp_path / "log.csv"
        assert cli_dispatch(["gen-data", "--function", "log", "--samples", "1500",
                             "--out", str(data)]) == 0
        header = json.loads(data.read_text().splitlines()[0])
        assert header["config"]["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAF_SEED", "123")
        data = tmp_path / "log.csv"
        assert cli_dispatch(["gen-data", "--function", "log", "--samples", "1500",
                             "--seed", "9", "--out", str(data)]) == 0
        header = json.loads(data.read_text().splitlines()[0])
        assert header["config"]["seed"] == 9


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
    ], ids=["zero_samples", "metadata_kernel"])
    def test_usage_errors_exit_2(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.setattr(sys, "argv", ["train_models.py", "--out", str(tmp_path), *args])
        assert _script_main("train_models")() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestCompareGuidance:
    def test_program_without_a_model_is_skipped(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "exp.json").write_bytes((FIXTURE_MODELS / "exp.json").read_bytes())
        monkeypatch.setattr(sys, "argv", ["compare_guidance.py", "--models", str(tmp_path),
                                          "--seeds", "0", "--max-iters", "20"])
        assert _script_main("compare_guidance")() == 0
        out = capsys.readouterr().out
        assert "softmax_logit_blowup         site 'y' (Softmax): no trained model; skipped" in out
        assert "guided wins or ties on 1/1 programs" in out

    @pytest.mark.parametrize("args, message", [
        (["--models", "missing"], "does not exist"),
        (["--models", "."], "no model files"),
        (["--models", str(FIXTURE_MODELS), "--max-iters", "0"], "max_iters"),
        (["--models", str(FIXTURE_MODELS), "--seeds", "1,,2"], "cannot parse seed list"),
    ], ids=["missing_dir", "empty_dir", "zero_iters", "empty_seed"])
    def test_usage_errors_exit_2(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["compare_guidance.py", *args])
        assert _script_main("compare_guidance")() == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
