"""Correctness checks, made apart from the code path being timed.

Every checker takes the answer a command or the service gave and returns
a list of problems (empty when the answer is right).  None of them
compares against a stored copy of an earlier answer: each one either
recomputes the answer along another path (the public ``Executor``, the
uncached ``decide_selection``, the refinement engine called directly) or
tests a property the method must have.

``repro`` is imported lazily: the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Any, Dict, List, Optional, Sequence

# ----------------------------------------------------------------------
# explore-dp
# ----------------------------------------------------------------------


def replay_deadlock(scenario: Dict[str, Any], schedule: Sequence[str]) -> Optional[str]:
    """Replay ``schedule`` step by step through the public ``Executor``
    and confirm the end state is a deadlock: some processor is eligible,
    and no eligible step changes the configuration.  Returns None when it
    is, else what is wrong."""
    from repro.obs.scenarios import build_scenario
    from repro.runtime.executor import Executor

    bundle = build_scenario(scenario)
    executor = Executor(bundle.system, bundle.program, bundle.base_scheduler)
    by_name = {str(p): p for p in bundle.system.processors}
    for name in schedule:
        if name not in by_name:
            return f"schedule names unknown processor {name!r}"
        executor.step_as(by_name[name])
    eligible = executor.eligible_processors()
    if not eligible:
        return "every processor halted: that is termination, not a deadlock"
    before = executor.configuration()
    for proc in eligible:
        twin = executor.clone()
        twin.step_as(proc)
        if twin.configuration() != before:
            return f"after the schedule, a step of {proc} still changes the configuration"
    return None


def _ring_cycle(system) -> List[Any]:
    """The nodes of a ring system in cyclic order, processors at even
    positions."""
    network = system.network
    adj: Dict[Any, List[Any]] = {}
    for proc in system.processors:
        for var in network.neighbors_of_processor(proc).values():
            adj.setdefault(proc, []).append(var)
            adj.setdefault(var, []).append(proc)
    if any(len(set(nbrs)) != 2 for nbrs in adj.values()):
        raise ValueError("not a ring: some node does not have two neighbours")
    start = system.processors[0]
    cycle, prev, cur = [start], None, start
    while True:
        nxt = next(x for x in sorted(set(adj[cur]), key=str) if x != prev)
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    if len(cycle) != len(adj):
        raise ValueError("not a ring: the walk from one processor misses nodes")
    return cycle


def dihedral_group_size(system) -> int:
    """How many of the ring's 2n dihedral maps (rotations and reflections
    that send processors to processors) preserve the system: every
    processor's named neighbours and every node's initial state."""
    cycle = _ring_cycle(system)
    length = len(cycle)
    network = system.network
    count = 0
    for shift in range(0, length, 2):
        for direction in (1, -1):
            sigma = {
                cycle[j]: cycle[(shift + direction * j) % length]
                for j in range(length)
            }
            preserved = all(
                sigma[var] == network.neighbors_of_processor(sigma[proc]).get(name)
                for proc in system.processors
                for name, var in network.neighbors_of_processor(proc).items()
            ) and all(
                system.state0(node) == system.state0(sigma[node])
                for node in cycle
            )
            count += preserved
    return count


def check_explore_report(report: Dict[str, Any], expect: str) -> List[str]:
    """One ``explore --output`` report: the expected verdict, a replayable
    deadlock when one is claimed, and the group size the ring's dihedral
    maps give."""
    from repro.obs.scenarios import build_scenario

    problems: List[str] = []
    scenario = report["spec"]["scenario"]
    if report["verdict"] != expect:
        problems.append(f"verdict {report['verdict']!r}, expected {expect!r}")
    if expect == "violation":
        violation = report.get("violation") or {}
        if violation.get("kind") != "deadlock":
            problems.append(f"violation kind {violation.get('kind')!r}, expected deadlock")
        else:
            error = replay_deadlock(scenario, violation["schedule"])
            if error:
                problems.append(f"counterexample does not replay to a deadlock: {error}")
    group = dihedral_group_size(build_scenario(scenario).system)
    if report["group_size"] != group:
        problems.append(
            f"group size {report['group_size']}, but {group} dihedral maps "
            "preserve the system"
        )
    return problems


# ----------------------------------------------------------------------
# parametric-dp
# ----------------------------------------------------------------------


def check_parametric(doc: Dict[str, Any], sizes: Sequence[int]) -> List[str]:
    """A ``parametric --family dp --property deadlock`` report.

    The certificate must claim a deadlock for all n >= cutoff and every
    record at or above the cutoff must agree; ``verify_cutoff`` must have
    confirmed it; at each of ``sizes`` (beyond any size the run
    explored) the classic circular-wait schedule must replay to a
    deadlock, and the labeling schema's predicted class count must equal
    the refinement engine run directly on that member.
    """
    from repro.analysis.parametric import LabelingSchema
    from repro.core.families import parametric_family
    from repro.core.refinement import compute_similarity_labeling

    problems: List[str] = []
    cert = doc["certificate"]
    cutoff = cert["cutoff"]
    if (cert["property"], cert["verdict"], cert["violation_kind"]) != (
        "deadlock", "violation", "deadlock"
    ):
        problems.append(
            f"certificate says {cert['property']}/{cert['verdict']}/"
            f"{cert['violation_kind']}, expected a deadlock"
        )
    if f"for all n >= {cutoff}" not in cert["claim"]:
        problems.append(f"claim {cert['claim']!r} is not for all n >= {cutoff}")
    for record in cert["records"]:
        if record["size"] >= cutoff and record["verdict"] != "violation":
            problems.append(f"n={record['size']} at or above the cutoff is {record['verdict']}")
    if not doc["verify_cutoff"]["confirmed"]:
        problems.append(f"verify_cutoff not confirmed: {doc['verify_cutoff']['error']}")

    family = parametric_family(cert["family"])
    schema_doc = doc.get("labeling_schema")
    schema = None
    if schema_doc is None:
        problems.append("no labeling schema in the report")
    else:
        schema = LabelingSchema(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in schema_doc.items()
        })
    for n in sizes:
        if n < cutoff:
            problems.append(f"spot-check size {n} is below the cutoff {cutoff}")
            continue
        procs = [str(p) for p in family.instantiate(n).processors]
        error = replay_deadlock(family.scenario(n), [p for p in procs for _ in (0, 1)])
        if error:
            problems.append(f"n={n}: the certified deadlock does not replay: {error}")
        if schema is not None:
            direct = len(compute_similarity_labeling(family.instantiate(n)).labeling.labels)
            if schema.predicted_classes(n) != direct:
                problems.append(
                    f"n={n}: schema predicts {schema.predicted_classes(n)} "
                    f"classes, refinement finds {direct}"
                )
    return problems


# ----------------------------------------------------------------------
# witness-ql
# ----------------------------------------------------------------------


def check_witnesses(doc: Dict[str, Any]) -> List[str]:
    """A ``witness --output`` list: each witness re-decided uncached
    (selection impossible in the weaker model, possible in the stronger),
    and no two witnesses isomorphic."""
    from repro.analysis.witness_engine import SweepSpec, WitnessRecord
    from repro.core.quotient import are_isomorphic
    from repro.core.selection import decide_selection

    problems: List[str] = []
    spec = SweepSpec.from_json(doc["spec"])
    records = [WitnessRecord.from_json(w["record"]) for w in doc["witnesses"]]
    if not records:
        problems.append(f"no witness for {spec.weaker} < {spec.stronger}")
    weak = [r.system(*spec.weak_model) for r in records]
    for i, record in enumerate(records):
        if decide_selection(weak[i]).possible:
            problems.append(f"witness {i} admits selection under {spec.weaker}")
        if not decide_selection(record.system(*spec.strong_model)).possible:
            problems.append(f"witness {i} admits no selection under {spec.stronger}")
    for i, j in combinations(range(len(records)), 2):
        if are_isomorphic(weak[i], weak[j]):
            problems.append(f"witnesses {i} and {j} are isomorphic")
    return problems


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def _jsonable(doc: Any) -> Any:
    return json.loads(json.dumps(doc, sort_keys=True))


def direct_answer(request: Dict[str, Any]) -> Dict[str, Any]:
    """What the service must answer, from the same engine called
    directly, outside the service (serially, with no cache or store)."""
    op = request["op"]
    if op == "similarity":
        from repro.core.refinement import compute_similarity_labeling
        from repro.obs.scenarios import build_scenario
        from repro.perf.batch import system_fingerprint

        system = build_scenario(request["scenario"]).system
        engine = request.get("engine", "worklist")
        labeling = compute_similarity_labeling(system, engine=engine).labeling
        blocks: Dict[Any, List[str]] = {}
        for proc in system.processors:
            blocks.setdefault(labeling[proc], []).append(str(proc))
        return {
            "op": "similarity",
            "fingerprint": system_fingerprint(system),
            "engine": engine,
            "classes": sorted(sorted(block) for block in blocks.values()),
        }
    if op == "witness":
        from repro.analysis.witness_engine import SweepSpec, run_sweep

        spec = SweepSpec.from_json(request["spec"])
        result = run_sweep(spec, workers=0)
        return _jsonable({
            "op": "witness",
            "spec": spec.to_json(),
            "witnesses": [w.describe() for w in result.witnesses],
            "count": len(result.witnesses),
        })
    if op == "explore":
        from repro.analysis.explore import ExploreSpec, run_explore

        result = run_explore(ExploreSpec.from_json(request["spec"]), workers=0)
        return _jsonable({
            "op": "explore",
            "verdict": result.verdict,
            "violation": None if result.violation is None else result.violation.to_json(),
            "unique_states": result.unique_states,
            "group_size": result.group_size,
        })
    raise ValueError(f"no direct engine for op {op!r}")


def check_answer(answer: Dict[str, Any], direct: Dict[str, Any]) -> List[str]:
    """Every field of the direct answer must come back unchanged
    (the service may add counters such as ``stats``)."""
    if "error" in answer:
        return [f"error answer: {answer['error']}"]
    return [
        f"{key}: service {answer.get(key)!r} != direct {value!r}"
        for key, value in direct.items()
        if answer.get(key) != value
    ]


def check_orbit_union(scenario: Dict[str, Any], classes: Sequence[Sequence[str]]) -> List[str]:
    """Similar processors include symmetric ones: every automorphism
    orbit of processors lies inside one similarity class."""
    from repro.core.automorphism import automorphism_orbits
    from repro.obs.scenarios import build_scenario

    system = build_scenario(scenario).system
    where = {name: i for i, block in enumerate(classes) for name in block}
    procs = set(system.processors)
    problems = []
    for orbit in automorphism_orbits(system):
        owners = {where.get(str(p)) for p in orbit if p in procs}
        if len(owners) > 1 or None in owners:
            members = sorted(str(p) for p in orbit if p in procs)
            problems.append(f"orbit {members} is split across similarity classes")
    return problems


def strip_counters(answer: Dict[str, Any]) -> Dict[str, Any]:
    """The answer without fields that depend on cache warmth."""
    return {k: v for k, v in answer.items() if k not in ("stats", "cache_misses")}


def malformed_ok(answer: Dict[str, Any], field: str) -> bool:
    """A type-malformed request is answered right only by an error that
    names the offending field."""
    return isinstance(answer.get("error"), str) and field in answer["error"]
