"""Unit tests for the journal differ (repro.obs.jdiff)."""

import copy

import pytest

from repro.obs.jdiff import (
    JDIFF_KIND,
    describe_event,
    diff_journals,
    format_jdiff,
    validate_jdiff_report,
)
from repro.obs.journal import journal_digest, record_run


@pytest.fixture(scope="module")
def mvt_journal():
    recorder, _stats = record_run("mvt")
    return recorder.header(), recorder.events


def _perturb_swap(events, index):
    """Swap events[index] and events[index+1], fixing seq numbers."""
    out = copy.deepcopy(events)
    out[index], out[index + 1] = dict(out[index + 1]), dict(out[index])
    out[index]["seq"], out[index + 1]["seq"] = index, index + 1
    return out


def _with_digest(header, events):
    return dict(header, digest=journal_digest(events),
                num_events=len(events))


class TestSelfDiff:
    def test_identical_journals_diff_empty(self, mvt_journal):
        header, events = mvt_journal
        report = diff_journals(header, events, header, events)
        assert report["kind"] == JDIFF_KIND
        assert report["identical"] is True
        assert report["first_divergence"] is None
        assert report["header_mismatches"] == []
        assert report["num_common_prefix"] == len(events)
        assert validate_jdiff_report(report) == []

    def test_format_reports_identical(self, mvt_journal):
        header, events = mvt_journal
        text = format_jdiff(diff_journals(header, events, header, events))
        assert "identical" in text
        assert header["digest"] in text


class TestFirstDivergence:
    def test_swap_localized_with_blame(self, mvt_journal):
        header, events = mvt_journal
        index = next(
            i for i, e in enumerate(events) if e["kind"] == "tb_ready"
        )
        perturbed = _perturb_swap(events, index)
        report = diff_journals(
            header, events, _with_digest(header, perturbed), perturbed,
            window=4,
        )
        assert report["identical"] is False
        divergence = report["first_divergence"]
        assert divergence["index"] == index
        assert report["num_common_prefix"] == index
        # a swap is a reorder: both sides reappear one event later
        blame = divergence["blame"]
        assert blame["a_reordered_to"] == index + 1
        assert blame["b_reordered_to"] == index + 1
        assert "reordered" in blame["summary"]
        assert validate_jdiff_report(report) == []

    def test_blame_names_the_tb_and_edge(self, mvt_journal):
        header, events = mvt_journal
        index = next(
            i for i, e in enumerate(events) if e["kind"] == "tb_ready"
        )
        perturbed = _perturb_swap(events, index)
        report = diff_journals(
            header, events, _with_digest(header, perturbed), perturbed,
        )
        event = events[index]
        line = report["first_divergence"]["blame"]["a"]
        assert "k{}/tb{}".format(event["kernel"], event["tb"]) in line
        assert "released by" in line

    def test_field_change_reported_as_changed_fields(self, mvt_journal):
        header, events = mvt_journal
        perturbed = copy.deepcopy(events)
        perturbed[7]["t_ns"] += 1.0
        report = diff_journals(
            header, events, _with_digest(header, perturbed), perturbed,
        )
        divergence = report["first_divergence"]
        assert divergence["index"] == 7
        assert divergence["changed_fields"] == ["t_ns"]
        assert "timing" in divergence["blame"]["summary"]

    def test_truncation_diverges_at_the_cut(self, mvt_journal):
        header, events = mvt_journal
        short = copy.deepcopy(events[:-10])
        report = diff_journals(
            header, events, _with_digest(header, short), short,
        )
        divergence = report["first_divergence"]
        assert divergence["index"] == len(short)
        assert divergence["b_event"] is None
        assert "ends at event" in divergence["blame"]["summary"]

    def test_window_bounds_the_waterfall(self, mvt_journal):
        header, events = mvt_journal
        perturbed = _perturb_swap(events, 40)
        report = diff_journals(
            header, events, _with_digest(header, perturbed), perturbed,
            window=3,
        )
        window = report["first_divergence"]["window"]
        assert len(window["before"]) <= 3
        assert len(window["a_after"]) <= 3
        assert len(window["b_after"]) <= 3

    def test_format_renders_waterfall(self, mvt_journal):
        header, events = mvt_journal
        perturbed = _perturb_swap(events, 40)
        text = format_jdiff(diff_journals(
            header, events, _with_digest(header, perturbed), perturbed,
        ))
        assert "first divergence at event 40" in text
        assert "A>" in text and "B>" in text
        assert "blame:" in text


class TestHeaderMismatch:
    def test_workload_mismatch_reported(self, mvt_journal):
        header, events = mvt_journal
        other = dict(header, workload="bicg")
        report = diff_journals(header, events, other, events)
        assert report["identical"] is False
        assert any("workload" in m for m in report["header_mismatches"])

    def test_options_mismatch_reported(self, mvt_journal):
        header, events = mvt_journal
        other = dict(header, options=dict(header["options"], window=99))
        report = diff_journals(header, events, other, events)
        assert any("options.window" in m for m in report["header_mismatches"])


class TestDescribeEvent:
    def test_handles_every_shape(self):
        assert describe_event(None) == "(stream ended)"
        line = describe_event({
            "t_ns": 1500.0, "kind": "tb_dispatch", "kernel": 2, "tb": 5,
            "sm": 1, "edge": {"kind": "tb_finish", "kernel": 2, "tb": 4},
        })
        assert "k2/tb5" in line
        assert "sm=1" in line
        assert "released by tb_finish k2/tb4" in line
        call = describe_event({
            "t_ns": 0.0, "kind": "call_start", "position": 3,
            "op": "memcpyH2D",
        })
        assert "call 3 (memcpyH2D)" in call

