"""Property tests: the document validators never raise.

Every validator returns a list of problem strings, empty when the
document is valid.  Whatever JSON value it is handed — a random value,
or a valid document with one value anywhere replaced by a random one —
it must return that list, never raise: ``repro jdiff`` and the fuzz
oracle feed them files and reports that may be corrupt.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.runner import (
    resolve_fuzz_config,
    run_fuzz,
    validate_fuzz_report,
)
from repro.fuzz.shrink import make_case, validate_case
from repro.obs import critpath, telemetry
from repro.obs.jdiff import diff_journals, validate_jdiff_report
from repro.obs.journal import record_run, validate_journal
from repro.obs.log import Heartbeat, validate_status_snapshot
from repro.schema import NON_NEGATIVE, Map, Optional, check, one_of
from repro.version import schema_versions
from repro.workloads.fuzzgen import FuzzSpec

#: one table with every form of the checker
TABLE = {
    "kind": "repro-x", "n": NON_NEGATIVE, "xs": [Map((str, bool))],
    "o": Optional({"k": one_of("a", "b")}),
}

#: every form alone, and the table at the top and inside a list
SCHEMAS = [*TABLE.values(), (str, bool), Map(int), TABLE, [TABLE]]

#: object keys: random, or ones the tables name, so that random values
#: reach past the top level of a table
keys = st.text(max_size=8) | st.sampled_from(
    sorted(TABLE) + ["k", "header", "events", "seq", "t_ns", "edge"]
)

#: any JSON value, NaN and the infinities included (``json`` reads both)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=12,
)


def _validate_journal(document):
    return validate_journal(document["header"], document["events"])


#: validator name -> a function of one JSON value
VALIDATORS = {
    "critpath": critpath.validate_critpath_report,
    "telemetry": telemetry.validate_telemetry_report,
    "journal": _validate_journal,
    "jdiff": validate_jdiff_report,
    "fuzz_report": validate_fuzz_report,
    "fuzz_case": validate_case,
    "status": validate_status_snapshot,
}


def _assert_problem_list(problems):
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)


@pytest.fixture(scope="module")
def documents():
    """One valid document of each kind, keyed like :data:`VALIDATORS`."""
    recorder, stats = record_run("mvt", build_small=True)
    header, events = recorder.header(), recorder.events
    docs = {
        "critpath": critpath.build_report(stats, recorder, whatif=True),
        "telemetry": telemetry.build_report(stats, recorder),
        "journal": {"header": header, "events": events},
        "jdiff": diff_journals(header, events, header, events[:-1]),
        "fuzz_report": run_fuzz(resolve_fuzz_config(count=2, seed=5)),
        "fuzz_case": make_case(
            FuzzSpec.from_seed(3), [], modes=("auto",),
            model="consumer3", source_seed=3,
        ),
        "status": Heartbeat(3, status_path="").snapshot(),
    }
    for name, document in docs.items():
        assert VALIDATORS[name](document) == [], name
    return docs


@settings(max_examples=300, deadline=None)
@given(value=json_values, events=json_values)
def test_any_json_value_yields_a_problem_list(value, events):
    for schema in SCHEMAS:
        _assert_problem_list(check(value, schema))
    for name, validate in VALIDATORS.items():
        if name != "journal":
            _assert_problem_list(validate(value))
    _assert_problem_list(validate_journal(value, events))


def _replace_drawn_value(data, document, replacement):
    """``document`` with the value at a drawn path replaced; at each
    level the walk stops or descends with even odds, so keys near the
    top are drawn as well as the leaves of long lists."""
    document = copy.deepcopy(document)
    node = document
    while True:
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))
        ))
        child = node[key]
        if child and isinstance(child, (dict, list)) and data.draw(
            st.booleans()
        ):
            node = child
            continue
        node[key] = replacement
        return document


@pytest.mark.parametrize("name", sorted(VALIDATORS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), replacement=json_values)
def test_valid_document_with_one_value_replaced(documents, name, data,
                                                replacement):
    mutated = _replace_drawn_value(data, documents[name], replacement)
    _assert_problem_list(VALIDATORS[name](mutated))


def _set(document, path, value):
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


@pytest.mark.parametrize("name, path, value", [
    pytest.param("telemetry", ("series", "t_ns"), ["a", 1], id="t_ns"),
    pytest.param("telemetry", ("overlap", "pairs", 0, "a"), [1],
                 id="pair-index"),
    pytest.param("journal", ("events",), 5, id="events"),
])
def test_values_that_used_to_raise(documents, name, path, value):
    problems = VALIDATORS[name](_set(documents[name], path, value))
    _assert_problem_list(problems)
    assert problems


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_every_document_kind_lists_its_schema_version(documents, name):
    # ``repro --version`` and ``/version`` name the fuzz report "fuzz"
    family = {"fuzz_report": "fuzz"}.get(name, name)
    document = documents[name]
    if name == "journal":
        document = document["header"]
    assert schema_versions()[family] == document["schema_version"]
