"""Each correctness checker accepts a right answer and rejects a
tampered one.  Inputs are small enough to compute here."""

import copy
import json

import pytest

import checks
from repro.analysis.explore import ExploreSpec, run_explore
from repro.analysis.parametric import compute_labeling_schema, detect_cutoff
from repro.analysis.witness_engine import SweepSpec, run_sweep
from repro.obs.scenarios import build_scenario

DP5 = {"topology": "dining", "size": 5, "program": "left-first"}
DPP6 = {"topology": "dining", "size": 6, "alternating": True, "program": "left-first"}


def _report(scenario, depth):
    result = run_explore(ExploreSpec(scenario=scenario, max_depth=depth), workers=0)
    return json.loads(json.dumps(result.report_doc()))


@pytest.fixture(scope="module")
def dp5_report():
    return _report(DP5, 10)


@pytest.fixture(scope="module")
def dpp6_report():
    return _report(DPP6, 6)


def test_dihedral_count_matches_ring_orientation():
    def size(scenario):
        return checks.dihedral_group_size(build_scenario(scenario).system)

    assert size(DP5) == 5  # rotations only: reflections swap left/right
    assert size(DPP6) == 6  # even rotations and three name-keeping reflections
    assert size({"topology": "dining", "size": 8, "alternating": True}) == 8


def test_explore_reports_pass(dp5_report, dpp6_report):
    assert checks.check_explore_report(dp5_report, "violation") == []
    assert checks.check_explore_report(dpp6_report, "certified") == []


def test_explore_check_rejects_tampering(dp5_report, dpp6_report):
    wrong_verdict = dict(dpp6_report, verdict="violation")
    assert checks.check_explore_report(wrong_verdict, "certified")

    wrong_group = dict(dpp6_report, group_size=12)
    assert checks.check_explore_report(wrong_group, "certified")

    short = copy.deepcopy(dp5_report)
    short["violation"]["schedule"] = short["violation"]["schedule"][:-1]
    problems = checks.check_explore_report(short, "violation")
    assert any("does not replay" in p for p in problems)


@pytest.fixture(scope="module")
def parametric_doc():
    cert = detect_cutoff("dp", "deadlock")
    return json.loads(json.dumps({
        "certificate": cert.to_json(),
        "verify_cutoff": {"extra_sizes": 2, "confirmed": True, "error": None},
        "labeling_schema": compute_labeling_schema("dp").to_json(),
    }))


def test_parametric_check_passes(parametric_doc):
    assert checks.check_parametric(parametric_doc, (9, 14)) == []


def test_parametric_check_rejects_tampering(parametric_doc):
    unconfirmed = copy.deepcopy(parametric_doc)
    unconfirmed["verify_cutoff"].update(confirmed=False, error="mismatch")
    assert checks.check_parametric(unconfirmed, (9,))

    certified = copy.deepcopy(parametric_doc)
    certified["certificate"]["verdict"] = "certified"
    assert checks.check_parametric(certified, (9,))

    schema = copy.deepcopy(parametric_doc)
    schema["labeling_schema"]["base_counts"] = [3]
    problems = checks.check_parametric(schema, (9,))
    assert any("schema predicts" in p for p in problems)

    below = checks.check_parametric(parametric_doc, (1,))
    assert any("below the cutoff" in p for p in below)


@pytest.fixture(scope="module")
def witness_doc():
    spec = SweepSpec(weaker="Q", stronger="L", max_processors=2, max_names=2,
                     max_variables=2)
    result = run_sweep(spec, workers=0)
    return json.loads(json.dumps({
        "spec": spec.to_json(),
        "witnesses": [{"record": r.to_json()} for r in result.records],
    }))


def test_witness_check_passes(witness_doc):
    assert len(witness_doc["witnesses"]) >= 2
    assert checks.check_witnesses(witness_doc) == []


def test_witness_check_rejects_tampering(witness_doc):
    duplicated = copy.deepcopy(witness_doc)
    duplicated["witnesses"].append(duplicated["witnesses"][0])
    assert any("isomorphic" in p for p in checks.check_witnesses(duplicated))

    swapped = copy.deepcopy(witness_doc)
    swapped["spec"]["weaker"], swapped["spec"]["stronger"] = "L", "Q"
    assert any("admits" in p for p in checks.check_witnesses(swapped))

    empty = dict(witness_doc, witnesses=[])
    assert checks.check_witnesses(empty)


def test_serve_answer_checks():
    request = {"op": "similarity",
               "scenario": {"topology": "ring", "size": 6, "marks": ["p0"]}}
    direct = checks.direct_answer(request)
    answer = dict(direct, stats={"rounds": 3})
    assert checks.check_answer(answer, direct) == []
    assert checks.check_orbit_union(request["scenario"], answer["classes"]) == []

    merged = dict(answer, classes=[sorted(sum(answer["classes"], []))])
    assert checks.check_answer(merged, direct)
    assert checks.check_answer({"error": "boom"}, direct)

    unmarked = {"topology": "ring", "size": 4}
    split = [["p0", "p1"], ["p2", "p3"]]  # all four are symmetric
    assert checks.check_orbit_union(unmarked, split)


def test_serve_explore_answer_and_cold_warm_strip():
    request = {"op": "explore", "spec": {"scenario": DPP6, "max_depth": 4}}
    direct = checks.direct_answer(request)
    assert direct["verdict"] == "certified"
    assert checks.check_answer(dict(direct, unique_states=direct["unique_states"] + 1),
                               direct)
    assert checks.strip_counters(dict(direct, stats={"a": 1})) == \
        checks.strip_counters(dict(direct, stats={"a": 2}))


def test_malformed_answer_must_name_its_field():
    assert checks.malformed_ok({"error": "scenario.size must be an integer"}, "size")
    assert not checks.malformed_ok(
        {"error": "invalid literal for int() with base 10: 'x'"}, "size")
    assert not checks.malformed_ok({"classes": []}, "size")
