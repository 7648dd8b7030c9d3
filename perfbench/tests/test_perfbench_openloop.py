"""The open loop against a scripted fake server (no repro process)."""

import io
import json
import os
import threading
import time

import pytest

import serveload
from stats import due_latencies


class FakeServer:
    """Answers request lines in order; stalls once before answering the
    request whose id is ``stall_id``."""

    def __init__(self, stall_id, stall_s):
        req_r, req_w = os.pipe()
        ans_r, ans_w = os.pipe()
        self.stdin = io.TextIOWrapper(os.fdopen(req_w, "wb"), line_buffering=True)
        self.stdout = io.TextIOWrapper(os.fdopen(ans_r, "rb"))
        self._in = io.TextIOWrapper(os.fdopen(req_r, "rb"))
        self._out = os.fdopen(ans_w, "w")
        self.stall_id, self.stall_s = stall_id, stall_s
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for line in self._in:
            doc = json.loads(line)
            if doc["id"] == self.stall_id:
                time.sleep(self.stall_s)
            self._out.write(json.dumps({"id": doc["id"], "kind": "result",
                                        "result": {"echo": doc["request"]}}) + "\n")
            self._out.flush()
        self._out.close()


def test_latency_is_timed_from_due_time_and_counts_the_stall():
    server = FakeServer("t-1", 0.3)
    client = serveload.StdioClient(server)
    phase = [{"op": "similarity", "n": i} for i in range(6)]
    loop = serveload.open_loop(client, phase, "t", rate=20.0)
    client.close()
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()

    due = loop["due"]
    assert [round(b - a, 6) for a, b in zip(due, due[1:])] == [0.05] * 5
    assert all(s >= d for s, d in zip(loop["sent"], due))
    assert [a["echo"] for a in loop["answers"]] == phase
    lat = due_latencies(due, loop["answered"])
    # Request 1 stalls 300 ms; requests 2-5 were due during the stall and
    # queue behind it, so each waits (300 - its offset) ms from its due time.
    assert lat[0] < 0.05
    assert lat[1] == pytest.approx(0.3, abs=0.05)
    assert lat[2] == pytest.approx(0.25, abs=0.05)
    assert lat[5] == pytest.approx(0.1, abs=0.05)


def test_phase_mix_is_fixed_in_shape_and_seeded_in_content():
    a, b = serveload.build_phase(1), serveload.build_phase(2)
    assert a == serveload.build_phase(1)
    assert a != b
    for phase in (a, b):
        ops = [r["op"] for r in phase]
        assert len(phase) == serveload.PHASE_REQUESTS
        assert ops.count("explore") == len(serveload.EXPLORE_SLOTS)
        assert ops.count("witness") == 2 * len(serveload.WITNESS_SPECS)
        scenarios = {repr(r["scenario"]) for r in phase if r["op"] == "similarity"}
        pool = (len(serveload.SIM_TOPOLOGIES) * len(serveload.SIM_SIZES)
                * len(serveload.SIM_MARKS))
        assert len(scenarios) == pool  # every scenario at least once
        for slot, spec in serveload.EXPLORE_SLOTS:
            assert phase[slot] == {"op": "explore", "spec": spec}
