"""Unit tests for :mod:`repro.schema`, the one document checker, and for
the journal loader that runs it before ``repro jdiff`` reads a file."""

import copy
import os
import subprocess
import sys

import pytest

import repro
from repro.obs.journal import (
    canonical_line,
    journal_digest,
    load_journal,
    record_run,
)
from repro.schema import (
    NON_NEGATIVE,
    NUMBER,
    Map,
    Optional,
    assert_valid,
    check,
    one_of,
)

SRC = os.path.dirname(os.path.dirname(repro.__file__))


class TestCheck:
    def test_a_bool_is_not_an_int_or_a_float(self):
        assert check(True, int) == ["document: expected an integer"]
        assert check(False, NUMBER) == ["document: expected a number"]
        assert check(True, bool) == []
        assert check(3, int) == check(2.5, NUMBER) == []
        assert check(3, (str, bool)) == [
            "document: expected a string or a boolean"
        ]

    def test_optional_key_may_be_absent_or_null(self):
        table = {"eta_s": Optional(NUMBER)}
        assert check({}, table) == []
        assert check({"eta_s": None}, table) == []
        assert check({"eta_s": "soon"}, table) == [
            "eta_s: expected a number"
        ]
        assert check({}, {"eta_s": NUMBER}) == ["eta_s: missing"]
        assert check({"eta_s": None}, {"eta_s": NUMBER}) == [
            "eta_s: expected a number"
        ]

    def test_map_checks_every_value_under_any_key(self):
        table = Map([int])
        assert check({"0": [1], "7": []}, table, "resident") == []
        assert check({"0": [1], "7": [2, "x"]}, table, "resident") == [
            "resident.7[1]: expected an integer"
        ]
        assert check([1], table, "resident") == [
            "resident: expected an object"
        ]

    def test_constants_must_be_equal(self):
        assert check("repro-journal", "repro-journal") == []
        assert check("other", "repro-journal") == [
            "document: expected 'repro-journal'"
        ]
        assert check(True, 1) == ["document: expected 1"]

    def test_nested_path_names_the_value(self):
        table = {"overlap": {"pairs": [{"overlap_fraction": NUMBER}]}}
        pairs = [{"overlap_fraction": 0.5}] * 3 + [{"overlap_fraction": "x"}]
        assert check({"overlap": {"pairs": pairs}}, table) == [
            "overlap.pairs[3].overlap_fraction: expected a number"
        ]
        assert check({"overlap": {"pairs": 4}}, table) == [
            "overlap.pairs: expected a list"
        ]

    def test_predicates_run_on_the_checked_type(self):
        assert check(-1, NON_NEGATIVE) == [
            "document: expected a non-negative number"
        ]
        assert check("1", NON_NEGATIVE) == ["document: expected a number"]
        assert check("dependency", one_of("dependency", "launch")) == []
        assert check(["launch"], one_of("launch")) == [
            "document: expected one of 'launch'"
        ]

    def test_assert_valid_raises_only_on_problems(self):
        assert_valid("generated report", [])
        with pytest.raises(
            AssertionError, match="generated report is invalid"
        ):
            assert_valid("generated report", ["kind: missing"])


def _malformed(journal, case):
    """A journal whose header count and digest match malformed events."""
    header, events = copy.deepcopy(journal)
    if case == "event-not-object":
        events[0] = 5
    elif case == "edge-not-object":
        next(e for e in events if e["kind"] == "tb_ready")["edge"] = 7
    else:
        header["options"] = 3
    header.update(num_events=len(events), digest=journal_digest(events))
    return header, events


def _write(path, header, events):
    path.write_text("".join(
        canonical_line(line) + "\n" for line in [header] + events
    ))
    return str(path)


MALFORMED = [
    ("event-not-object", "events[0]: expected an object"),
    ("edge-not-object", "].edge: expected an object"),
    ("options-not-object", "header.options: expected an object"),
]


class TestMalformedJournal:
    @pytest.fixture(scope="class")
    def journal(self):
        recorder, _stats = record_run("mvt", build_small=True)
        return recorder.header(), recorder.events

    @pytest.mark.parametrize("case, problem", MALFORMED)
    def test_load_names_the_path_and_the_problem(self, journal, tmp_path,
                                                 case, problem):
        path = _write(tmp_path / "bad.jsonl", *_malformed(journal, case))
        with pytest.raises(ValueError) as info:
            load_journal(path)
        assert str(info.value).startswith(path + ": ")
        assert problem in str(info.value)

    @pytest.mark.parametrize("case", [case for case, _ in MALFORMED])
    def test_jdiff_exits_2_with_one_line(self, journal, tmp_path, case):
        good = _write(tmp_path / "good.jsonl", *journal)
        bad = _write(tmp_path / "bad.jsonl", *_malformed(journal, case))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "jdiff", good, bad],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: " + bad + ": ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
