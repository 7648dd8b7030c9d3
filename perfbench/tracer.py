"""Per-layer timers and counters, installed from outside the program.

The launcher calls :func:`install` in the traced run only.  It wraps the
public functions at each layer boundary (and the few engine-thread entry
points of the service) with a timer, then the program runs unchanged.
Nothing under ``src/`` knows it is being traced.

Every accumulator is a ``[count, total]`` pair keyed by layer name.  Each
thread adds into its own table, so the service's engine thread and its
event loop never race on a shared counter; :meth:`Tracer.snapshot` folds
the tables together.

Pool workers are forked from the traced process, so they inherit the
wrappers.  At fork a worker clears what it inherited and, when it exits,
writes its own table to ``trace_dir``; :func:`merge_dir` folds those files
into the parent's numbers, so calls made in pool workers are counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, trace_dir: Optional[str] = None) -> None:
        self.trace_dir = trace_dir
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[float]]] = []
        self._local = threading.local()
        self._depth = threading.local()

    def table(self) -> Dict[str, List[float]]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, name: str, value: float, count: int = 1) -> None:
        table = self.table()
        slot = table.get(name)
        if slot is None:
            table[name] = [count, value]
        else:
            slot[0] += count
            slot[1] += value

    def snapshot(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            merge_into(out, table)
        return out

    # -- fork handling ---------------------------------------------------

    def reset_after_fork(self) -> None:
        """In a forked pool worker: drop the parent's numbers and dump
        this worker's own when it exits."""
        self._lock = threading.Lock()
        self._tables = []
        self._local = threading.local()
        self._depth = threading.local()
        if self.trace_dir is not None:
            from multiprocessing import util

            util.Finalize(None, self.dump_worker, exitpriority=10)

    def dump_worker(self) -> None:
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    # -- wrappers --------------------------------------------------------

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None,
              nested: bool = False) -> Callable:
        """``fn`` with its calls and inclusive seconds added under
        ``name``; ``after(tracer, result)`` sees each return value.  With
        ``nested``, a call made while another call of the same wrapper is
        running counts as a call of ``name`` but its time goes to
        ``name + ".nested"`` only, so neither total counts any part twice:
        ``name`` holds the outermost calls' time, ``name + ".nested"`` the
        part of it spent in calls made inside them."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = 0
            if nested:
                depth = getattr(tracer._depth, name, 0)
                setattr(tracer._depth, name, depth + 1)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                if depth:
                    tracer.add(name, 0.0)
                    # Deeper calls run inside the depth-1 one: time it once.
                    tracer.add(name + ".nested", elapsed if depth == 1 else 0.0)
                else:
                    tracer.add(name, elapsed)
                if nested:
                    setattr(tracer._depth, name, depth)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def timed_from(self, module: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed under ``name`` only when called from ``module``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != module:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name, perf_counter() - t0)

        return wrapper


def merge_into(out: Dict[str, List[float]], table: Dict[str, List[float]]) -> None:
    for name, (count, total) in table.items():
        slot = out.setdefault(name, [0, 0.0])
        slot[0] += count
        slot[1] += total


def merge_dir(out: Dict[str, List[float]], trace_dir: str) -> int:
    """Fold every worker table written under ``trace_dir`` into ``out``;
    returns how many worker files there were."""
    files = sorted(f for f in os.listdir(trace_dir) if f.startswith("worker-"))
    for name in files:
        with open(os.path.join(trace_dir, name)) as fh:
            merge_into(out, json.load(fh))
    return len(files)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------


def _replace_function(original: Callable, wrapper: Callable) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``, so
    ``from .explore import run_explore`` style imports see the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _after_run_explore(tracer: Tracer, result) -> None:
    tracer.add("explore.unique_states", result.unique_states)
    tracer.add("explore.transitions", result.stats.transitions)


def _after_run_sweep(tracer: Tracer, result) -> None:
    stats = result.stats
    tracer.add("witness.enumerated", stats.enumerated)
    tracer.add("witness.novel", stats.novel)
    tracer.add("witness.cache_hits", stats.cache_hits)
    tracer.add("witness.cache_misses", stats.cache_misses)


def _after_store_get(tracer: Tracer, result) -> None:
    if result is not None:
        tracer.add("store.get.hits", 1)


def install(trace_dir: Optional[str]) -> Tracer:
    """Wrap every layer whose module is already imported."""
    from multiprocessing import util
    from concurrent.futures import Future
    from multiprocessing.managers import SharedMemoryManager

    tracer = Tracer(trace_dir)
    modules = sys.modules

    # A layer whose module is not loaded, or whose function has been
    # renamed, is left unwrapped and reads 0.
    def method(module: str, cls: str, attr: str, name: str, **kw) -> None:
        owner = getattr(modules.get(module), cls, None)
        if owner is not None and hasattr(owner, attr):
            setattr(owner, attr, tracer.timed(name, getattr(owner, attr), **kw))

    def function(module: str, attr: str, name: str, **kw) -> None:
        original = getattr(modules.get(module), attr, None)
        if original is not None:
            _replace_function(original, tracer.timed(name, original, **kw))

    method("repro.runtime.executor", "Executor", "successor",
           "runtime.successor")
    method("repro.runtime.executor", "Executor", "exploration_state",
           "runtime.exploration_state")
    method("repro.core.encoding", "StateEncoder", "identity_key",
           "encoding.identity_key")
    method("repro.core.orbits", "StabilizerChainCanonicalizer",
           "canonical_key", "orbits.canonical_key")
    function("repro.analysis.explore", "run_explore", "explore.run_explore",
             after=_after_run_explore, nested=True)
    for attr in ("detect_cutoff", "verify_cutoff", "compute_labeling_schema"):
        layer = "labeling_schema" if attr == "compute_labeling_schema" else attr
        function("repro.analysis.parametric", attr, f"parametric.{layer}")
    method("repro.analysis.witness_engine", "DecisionCache", "decide",
           "witness.decide")
    method("repro.analysis.witness_engine", "DedupIndex", "seen_before",
           "witness.seen_before")
    function("repro.analysis.witness_engine", "run_sweep", "witness.run_sweep",
             after=_after_run_sweep)
    function("repro.analysis.witness_engine", "wait", "witness.pool_wait")
    function("repro.perf.batch", "batch_similarity",
             "refinement.batch_similarity")
    method("repro.store.content", "ContentStore", "get", "store.get",
           after=_after_store_get)
    method("repro.store.content", "ContentStore", "put", "store.put")
    method("repro.store.content", "ContentStore", "flush", "store.flush")
    method("repro.serve.service", "AnalysisService", "_similarity_wave",
           "serve.engine")
    method("repro.serve.service", "AnalysisService", "_execute_one",
           "serve.engine")

    # The explorer's parent blocks in Future.result on level chunks and
    # publishes each level's frontier as one shared-memory block.
    Future.result = tracer.timed_from(
        "repro.analysis.explore", "explore.pool_wait", Future.result
    )
    make_block = SharedMemoryManager.SharedMemory

    def shared_memory(self, size):
        if sys._getframe(1).f_globals.get("__name__") == "repro.analysis.explore":
            tracer.add("explore.frontier.bytes", size)
        return make_block(self, size)

    SharedMemoryManager.SharedMemory = shared_memory
    util.register_after_fork(tracer, Tracer.reset_after_fork)
    return tracer
