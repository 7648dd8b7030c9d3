"""The repository's benchmark: four workloads, end to end and per layer.

Run one workload (what a regression check runs)::

    python3 perfbench/run.py --workload explore-dp --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload with the layer tracer installed and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Run every workload, untraced then traced, and print the per-layer
tables and the tracing overhead::

    python3 perfbench/run.py --all --seed 1 --seconds 25

Every operation runs in a fresh child process (``launcher.py``) that
calls the same entry point a user would: ``repro.cli.main``.  The
workloads, their inputs and the metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCHER = os.path.join(HERE, "launcher.py")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)  # the checkers call the program directly

import checks  # noqa: E402
import serveload  # noqa: E402
from stats import due_latencies, median, percentile  # noqa: E402
from tracer import merge_into  # noqa: E402

E2E = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

#: Per-layer metrics: (name, unit).  ``.calls``/``.s`` come straight from
#: the tracer's counters; the rest are derived in :func:`layer_metrics`.
TIMED_LAYERS = (
    "runtime.successor", "runtime.exploration_state", "encoding.identity_key",
    "orbits.canonical_key", "explore.run_explore", "witness.decide",
    "witness.seen_before", "refinement.batch_similarity", "store.get",
    "store.flush",
)
PER_LAYER = tuple(
    [(f"{layer}.calls", "count") for layer in TIMED_LAYERS]
    + [(f"{layer}.s", "s") for layer in TIMED_LAYERS]
    + [
        ("orbits.memo_hit_ratio", "ratio"),
        ("explore.nested.s", "s"),
        ("explore.useful_ratio", "ratio"),
        ("explore.pool_wait.s", "s"),
        ("explore.frontier.bytes", "B"),
        ("parametric.detect_cutoff.s", "s"),
        ("parametric.verify_cutoff.s", "s"),
        ("parametric.labeling_schema.s", "s"),
        ("witness.cache_hit_ratio", "ratio"),
        ("witness.novel_ratio", "ratio"),
        ("witness.pool_wait.s", "s"),
        ("store.hit_ratio", "ratio"),
        ("store.put.calls", "count"),
        ("serve.engine.s", "s"),
        ("serve.busy_ratio", "ratio"),
        ("serve.waves", "count"),
        ("serve.coalesced", "count"),
    ]
)

#: Children run with one fixed hash seed, so set and dict iteration
#: order (and with it the exact work done) is the same in every run.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES = 5


class Child:
    """One launcher process: spawn, wait, and what it cost."""

    def __init__(self, argv: Sequence[str], preload: Sequence[str], work: str,
                 traced: bool, stdin=None, stdout=None, setup_only=False) -> None:
        self.report_path = tempfile.mktemp(prefix="report-", suffix=".json", dir=work)
        self.trace_dir = tempfile.mkdtemp(prefix="trace-", dir=work) if traced else None
        self.log_path = tempfile.mktemp(prefix="log-", suffix=".txt", dir=work)
        cmd = [sys.executable, LAUNCHER, "--src", SRC, "--report", self.report_path,
               "--preload", ",".join(preload)]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", self.trace_dir]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", *argv]
        self._log = open(self.log_path, "w")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=CHILD_ENV, text=True,
            stdin=stdin, stdout=stdout if stdout is not None else self._log,
            stderr=subprocess.PIPE if stdin is not None else self._log,
        )
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.returncode: Optional[int] = None

    def wait(self) -> Dict[str, Any]:
        """Reap the child; its CPU time includes its reaped pool workers.
        A child still running after ``CHILD_TIMEOUT_S`` is killed."""
        deadline = self.t_spawn + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self.returncode != 0 or not os.path.exists(self.report_path):
            with open(self.log_path) as fh:
                tail = fh.read()[-2000:]
            raise ChildFailed(f"child exited {self.returncode}: {tail}")
        with open(self.report_path) as fh:
            return json.load(fh)


class ChildFailed(RuntimeError):
    pass


class Run:
    """What one benchmark run collects."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setups: List[float] = []
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.rss: List[float] = []
        self.layers: Dict[str, List[float]] = {}
        self.rounds = 0
        self.extra: Dict[str, Any] = {}


# ----------------------------------------------------------------------
# the three command-line workloads
# ----------------------------------------------------------------------


class Memo:
    """Check each distinct answer once per run: the same output of the
    same command is right or wrong the same way."""

    def __init__(self, fn: Callable[..., List[str]]) -> None:
        self.fn = fn
        self.seen: Dict[str, List[str]] = {}

    def __call__(self, doc: Dict[str, Any], *args) -> List[str]:
        key = json.dumps([doc, args], sort_keys=True)
        if key not in self.seen:
            self.seen[key] = self.fn(doc, *args)
        return self.seen[key]


def cli_op(argv: List[str], expect_code: int, check: Callable[[Dict[str, Any]], List[str]]):
    return {"argv": argv, "expect_code": expect_code, "check": check}


def cli_workload(seed: int) -> Dict[str, Any]:
    """Per-workload command lists (``--output`` is appended per run)."""
    explore_check = Memo(checks.check_explore_report)
    parametric_check = Memo(checks.check_parametric)
    sched = ["--sched-seed", str(seed)]
    # Spot-check sizes for the parametric certificate: beyond every size
    # the run itself explores (it probes n = 2..5 and verifies 6, 7).
    sizes = (8 + seed % 5, 13 + seed % 7)
    return {
        "explore-dp": {
            "preload": ["repro.analysis.explore"],
            "ops": [
                cli_op(["explore", "dining", "8", "--alternating", "--program",
                        "left-first", "--max-depth", "12", *sched], 0,
                       lambda doc: explore_check(doc, "certified")),
                cli_op(["explore", "dining", "6", "--program", "left-first",
                        "--max-depth", "12", *sched], 1,
                       lambda doc: explore_check(doc, "violation")),
            ],
        },
        "parametric-dp": {
            "preload": ["repro.analysis.parametric"],
            "ops": [cli_op(["parametric", "--family", "dp", "--property", "deadlock"], 0,
                           lambda doc: parametric_check(doc, sizes))],
        },
        "witness-ql": {
            "preload": ["repro.analysis.witness_engine", "repro.analysis.witness_search"],
            "ops": [cli_op(["witness", "Q", "L"], 0, Memo(checks.check_witnesses))],
        },
    }


def run_cli(spec: Dict[str, Any], rounds: int, run: Run, work: str) -> None:
    # A round of one or two commands gives few set-up samples; extra
    # launches that stop at the engine call give the median more.
    for _ in range(SETUP_SAMPLES):
        child = Child([], spec["preload"], work, False, setup_only=True)
        report = child.wait()
        run.setups.append(report["t_engine"] - child.t_spawn)
    for _ in range(rounds):
        wall = cpu = 0.0
        whole = True
        for op in spec["ops"]:
            run.attempted += 1
            output = tempfile.mktemp(prefix="out-", suffix=".json", dir=work)
            child = Child(op["argv"] + ["--output", output], spec["preload"], work,
                          run.traced)
            try:
                report = child.wait()
                if report["exit_code"] != op["expect_code"]:
                    raise ChildFailed(
                        f"{' '.join(op['argv'])} exited {report['exit_code']}, "
                        f"expected {op['expect_code']}"
                    )
                with open(output) as fh:
                    doc = json.load(fh)
            except (ChildFailed, OSError, ValueError) as exc:
                run.failed += 1
                run.problems.append(f"failed: {exc}")
                whole = False
                continue
            run.setups.append(report["t_engine"] - child.t_spawn)
            wall += report["t_done"] - report["t_engine"]
            cpu += child.cpu_s
            run.rss.append(child.rss_mb)
            merge_into(run.layers, report.get("layers", {}))
            run.problems.extend(op["check"](doc))
        if whole:  # a round with a failed command has no round time
            run.walls.append(wall)
            run.cpus.append(cpu)
        run.rounds += 1


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

SERVE_PRELOAD = [
    "repro.serve.service", "repro.serve.http", "repro.store", "repro.perf.batch",
    "repro.analysis.explore", "repro.analysis.witness_engine",
    "repro.analysis.witness_search", "repro.obs.scenarios",
]


def _drain(stream) -> None:
    for _line in stream:
        pass


def serve_phase(run: Run, work: str, store: str, phase: List[Dict[str, Any]],
                tag: str) -> Dict[str, Any]:
    """One server lifetime: start, open loop, isolated malformed
    requests, (traced: a stats request), stop."""
    child = Child(["serve", "--stdio", "--store", store], SERVE_PRELOAD, work,
                  run.traced, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    ready = child.proc.stderr.readline()
    t_ready = time.monotonic()
    if "serving stdio" not in ready:
        child.proc.kill()
        child.wait()
        raise ChildFailed(f"server did not start: {ready!r}")
    threading.Thread(target=_drain, args=(child.proc.stderr,), daemon=True).start()
    client = serveload.StdioClient(child.proc)
    loop = serveload.open_loop(client, phase, tag)
    malformed = [
        (client.ask(f"{tag}-bad-{i}", request), field)
        for i, (request, field) in enumerate(serveload.MALFORMED)
    ]
    stats = client.ask(f"{tag}-stats", {"op": "stats"}) if run.traced else None
    client.close()
    report = child.wait()
    run.setups.append(t_ready - child.t_spawn)
    run.rss.append(child.rss_mb)
    merge_into(run.layers, report.get("layers", {}))
    if stats is not None:
        counters = stats.get("counters", {})
        merge_into(run.layers, {"serve.waves": [1, counters.get("waves", 0)],
                        "serve.coalesced": [1, counters.get("coalesced", 0)]})
    loop["malformed"] = malformed
    loop["cpu_s"] = child.cpu_s
    return loop


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def run_serve(seed: int, rounds: int, run: Run, work: str) -> None:
    phase = serveload.build_phase(seed)
    lat: Dict[str, List[float]] = {"cold": [], "warm": []}
    lateness: List[float] = []
    phase_s = 0.0
    store_kb: List[float] = []
    outcomes = []
    for r in range(rounds):
        store = tempfile.mkdtemp(prefix="store-", dir=work)
        cold = serve_phase(run, work, store, phase, f"c{r}")
        store_kb.append(_dir_bytes(store) / 1024.0)
        warm = serve_phase(run, work, store, phase, f"w{r}")
        shutil.rmtree(store, ignore_errors=True)
        run.cpus.append(cold["cpu_s"] + warm["cpu_s"])
        for name, loop in (("cold", cold), ("warm", warm)):
            done = [(d, a) for d, a in zip(loop["due"], loop["answered"]) if a is not None]
            lat[name].extend(due_latencies([d for d, _ in done], [a for _, a in done]))
            lateness.extend(s - d for s, d in zip(loop["sent"], loop["due"]))
            if done:
                phase_s += max(a for _, a in done) - loop["due"][0]
        outcomes.append((cold, warm))
        run.rounds += 1

    # Correctness, after the timed part: direct engine answers once per
    # distinct request, shared by every round.
    direct: Dict[str, Dict[str, Any]] = {}
    orbit_problems: Dict[str, List[str]] = {}
    for cold, warm in outcomes:
        for i, request in enumerate(phase):
            key = json.dumps(request, sort_keys=True)
            answers = (cold["answers"][i], warm["answers"][i])
            for answer in answers:
                run.attempted += 1
                if answer is None or "error" in answer:
                    run.failed += 1
            if any(a is None or "error" in a for a in answers):
                continue
            if key not in direct:
                direct[key] = checks.direct_answer(request)
            for name, answer in zip(("cold", "warm"), answers):
                run.problems.extend(
                    f"{name} {request['op']} #{i}: {p}"
                    for p in checks.check_answer(answer, direct[key])
                )
            if checks.strip_counters(answers[0]) != checks.strip_counters(answers[1]):
                run.problems.append(f"{request['op']} #{i}: cold and warm answers differ")
            if request["op"] == "similarity":
                if key not in orbit_problems:
                    orbit_problems[key] = checks.check_orbit_union(
                        request["scenario"], answers[0]["classes"])
                run.problems.extend(orbit_problems[key])
        for loop in (cold, warm):
            for answer, field in loop["malformed"]:
                run.attempted += 1
                if answer is None or not checks.malformed_ok(answer, field):
                    run.failed += 1

    everything = lat["cold"] + lat["warm"]
    run.walls = [median(everything)] if everything else []
    run.extra = {
        "store_kb": (median(store_kb), "KB"),
        "lateness_max_ms": (max(lateness) * 1000.0, "ms"),
        "lateness_p99_ms": (percentile(lateness, 99) * 1000.0, "ms"),
    }
    for name in ("cold", "warm"):
        if lat[name]:
            run.extra[f"{name}_p50_ms"] = (percentile(lat[name], 50) * 1000.0, "ms")
            run.extra[f"{name}_p95_ms"] = (percentile(lat[name], 95) * 1000.0, "ms")
            run.extra[f"{name}_samples"] = (len(lat[name]), "count")
    run.extra["phase_s"] = (phase_s, "s")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

WORKLOADS = ("explore-dp", "parametric-dp", "witness-ql", "serve-mixed")
#: Seconds one round takes on the reference machine (README.md).
NOMINAL_S = {"explore-dp": 7.5, "parametric-dp": 12.5, "witness-ql": 3.5,
             "serve-mixed": 9.5}


def e2e_metrics(run: Run) -> Dict[str, Dict[str, Any]]:
    # Zero only when every operation failed (``failed`` says so).
    values = {
        "setup_s": median(run.setups) if run.setups else 0.0,
        "wall_s": median(run.walls) if run.walls else 0.0,
        "cpu_s": median(run.cpus) if run.cpus else 0.0,
        "peak_rss_mb": max(run.rss, default=0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}


def layer_metrics(run: Run) -> Dict[str, Dict[str, Any]]:
    t = run.layers
    per = max(run.rounds, 1)

    def calls(name: str) -> float:
        return t.get(name, [0, 0.0])[0]

    def total(name: str) -> float:
        return t.get(name, [0, 0.0])[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.calls"] = calls(layer) / per
        values[f"{layer}.s"] = total(layer) / per
    identity = calls("encoding.identity_key")
    values["orbits.memo_hit_ratio"] = (
        1.0 - calls("orbits.canonical_key") / identity if identity else 0.0
    )
    values["explore.nested.s"] = total("explore.run_explore.nested") / per
    values["explore.useful_ratio"] = ratio(
        total("explore.unique_states"), total("explore.transitions"))
    values["explore.pool_wait.s"] = total("explore.pool_wait") / per
    values["explore.frontier.bytes"] = total("explore.frontier.bytes") / per
    for stage in ("detect_cutoff", "verify_cutoff", "labeling_schema"):
        values[f"parametric.{stage}.s"] = total(f"parametric.{stage}") / per
    hits, misses = total("witness.cache_hits"), total("witness.cache_misses")
    values["witness.cache_hit_ratio"] = ratio(hits, hits + misses)
    values["witness.novel_ratio"] = ratio(total("witness.novel"), total("witness.enumerated"))
    values["witness.pool_wait.s"] = total("witness.pool_wait") / per
    values["store.hit_ratio"] = ratio(calls("store.get.hits"), calls("store.get"))
    values["store.put.calls"] = calls("store.put") / per
    values["serve.engine.s"] = total("serve.engine") / per
    phase_s = run.extra.get("phase_s", (0.0, "s"))[0]
    values["serve.busy_ratio"] = ratio(total("serve.engine"), phase_s)
    values["serve.waves"] = total("serve.waves") / per
    values["serve.coalesced"] = total("serve.coalesced") / per
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about ``seconds``: a fixed count for a
    given run length, so every run attempts the same operations."""
    return max(1, int(seconds // NOMINAL_S[workload]))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    run = Run(traced)
    try:
        rounds = rounds_for(workload, seconds)
        if workload == "serve-mixed":
            run_serve(seed, rounds, run, work)
        else:
            run_cli(cli_workload(seed)[workload], rounds, run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def result_doc(run: Run) -> Dict[str, Any]:
    metrics = layer_metrics(run) if run.traced else e2e_metrics(run)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def print_table(title: str, metrics: Dict[str, Any]) -> None:
    print(title)
    for name, doc in metrics.items():
        value, unit = (doc["value"], doc["unit"]) if isinstance(doc, dict) else doc
        print(f"  {name:<34} {value:>14.6g} {unit}")


def report(workload: str, run: Run) -> Dict[str, Any]:
    doc = result_doc(run)
    mode = "traced, per layer" if run.traced else "untraced, end to end"
    print_table(f"{workload} ({mode}; {run.rounds} round(s), "
                f"{doc['attempted']} attempted, {doc['failed']} failed)", doc["metrics"])
    if run.extra and not run.traced:
        print_table(f"{workload} (serve detail)", run.extra)
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced, with "
                             "the tracing overhead")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.all:
        summary = {}
        for workload in WORKLOADS:
            runs = [run_workload(workload, args.seed, args.seconds, traced)
                    for traced in (False, True)]
            docs = [report(workload, run) for run in runs]
            plain, traced = (median(run.walls) for run in runs)
            print(f"  tracing overhead: wall_s {traced:.4f} traced - {plain:.4f} "
                  f"untraced = {traced - plain:+.4f} s ({(traced / plain - 1) * 100:+.1f}%)")
            summary[workload] = {"untraced": docs[0], "traced": docs[1],
                                 "tracing_overhead_s": traced - plain}
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("pick --workload or --all")
    doc = report(args.workload, run_workload(args.workload, args.seed, args.seconds,
                                             bool(args.trace)))
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
