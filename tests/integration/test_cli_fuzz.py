"""Integration tests for ``repro fuzz``: exit codes, JSON, parallelism.

Exit-code contract (mirrors the rest of the CLI): 0 for a clean
corpus, 1 when any case diverges from the scalar oracle (with the
minimized repro-file path in the summary), 2 for bad arguments.
``--json`` output must validate against the report schema, and a
``--jobs 2`` run must be byte-identical to the serial one — the report
deliberately carries no wall-clock or worker-count fields.
"""

import json

import pytest

import repro.analysis.fastpath as fp
from repro.cli import main
from repro.fuzz import validate_fuzz_report

#: small corpus containing a seed (3) that trips the planted canary
COUNT = "6"


def _plant_overlap_bug(monkeypatch):
    def widened(parent_shape, child_shape):
        return fp._merge_closed([
            (alo - bhi + 1, ahi - blo)
            for alo, ahi in parent_shape
            for blo, bhi in child_shape
        ])

    monkeypatch.setattr(fp, "_overlap_domain", widened)


class TestExitCodes:
    def test_clean_corpus_exits_zero(self, capsys):
        assert main(["fuzz", "--count", COUNT, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "divergences : none" in out

    def test_divergent_corpus_exits_one_with_repro_path(
        self, monkeypatch, tmp_path, capsys
    ):
        _plant_overlap_bug(monkeypatch)
        code = main([
            "fuzz", "--count", COUNT, "--seed", "0",
            "--out", str(tmp_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "repro file  : {}".format(tmp_path) in out
        assert list(tmp_path.glob("fuzz-case-*.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--count", "0"],
            ["fuzz", "--seed", "-1"],
        ],
    )
    def test_bad_arguments_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_model_exits_two(self, capsys):
        # argparse rejects names outside MODEL_CHOICES before cmd_fuzz
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--model", "not-a-model"])
        assert excinfo.value.code == 2


class TestJson:
    def test_json_report_validates(self, capsys):
        assert main(["fuzz", "--count", COUNT, "--seed", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert validate_fuzz_report(report) == []
        assert report["kind"] == "repro-fuzz-report"
        assert report["num_divergent"] == 0
        assert len(report["cases"]) == int(COUNT)

    def test_json_to_file(self, tmp_path, capsys):
        dest = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--count", COUNT, "--seed", "0", "--json", str(dest),
        ])
        assert code == 0
        with open(str(dest)) as handle:
            assert validate_fuzz_report(json.load(handle)) == []

    def test_parallel_report_identical_to_serial(self, tmp_path, capsys):
        argv = ["fuzz", "--count", COUNT, "--seed", "0", "--json"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
