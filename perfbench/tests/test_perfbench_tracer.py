"""The layer tracer: nested time counted once, pool-worker calls counted."""

import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util

from tracer import Tracer, merge_dir


def work(x):
    return x * 2


def test_nested_call_time_is_not_counted_twice():
    t = Tracer()

    def layer(depth):
        time.sleep(0.01)
        return layer_wrapped(depth - 1) if depth else 0

    layer_wrapped = t.timed("layer", layer, nested=True)
    layer_wrapped(2)
    table = t.snapshot()
    calls, outer_s = table["layer"]
    nested_calls, nested_s = table["layer.nested"]
    assert (calls, nested_calls) == (3, 2)
    assert 0.02 <= nested_s < outer_s


def test_pool_worker_calls_are_counted(tmp_path):
    t = Tracer(str(tmp_path))
    module = sys.modules[__name__]
    original = module.work
    module.work = t.timed("work", original)
    util.register_after_fork(t, Tracer.reset_after_fork)
    try:
        module.work(1)  # one call in this process
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            assert list(pool.map(module.work, range(6))) == [0, 2, 4, 6, 8, 10]
    finally:
        module.work = original
    table = t.snapshot()
    assert table["work"][0] == 1  # the parent's own count only
    workers = merge_dir(table, str(tmp_path))
    assert workers >= 1
    assert table["work"][0] == 7

