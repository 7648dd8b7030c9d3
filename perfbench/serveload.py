"""The serve-mixed traffic: a seeded request mix sent as an open loop.

One phase is ``PHASE_REQUESTS`` well-formed requests sent over one
``serve --stdio`` pipe at a fixed ``RATE``, whatever the server's pace
(an open loop: independent users do not wait for one another).  Each
answer is timed from when its request was *due*.  A phase holds the
same multiset of requests for every seed, so its cost does not depend
on the seed:

* the four ``EXPLORE_SLOTS`` requests at fixed positions, so the
  queueing they cause is the same for every seed;
* each of the four ``WITNESS_SPECS`` twice;
* each similarity scenario of ``SIM_TOPOLOGIES`` x ``SIM_SIZES`` x
  ``SIM_MARKS`` once, plus ``SIM_REPEATS`` repeats drawn from them (the
  service's memo and coalescing have work to do);
* after the loop has drained, the ``MALFORMED`` requests, one at a time,
  each alone in the server.  Sent inside the loop they would share a
  wave with well-formed requests, and which of those the malformed one
  poisons would depend on timing.

The seed draws the repeats and orders everything but the explore slots.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

RATE = 25.0  # requests per second
PHASE_REQUESTS = 100
ANSWER_TIMEOUT_S = 60.0

SIM_TOPOLOGIES = ("ring", "star", "path", "alternating-ring", "complete")
SIM_SIZES = (4, 6, 8, 10, 12)
SIM_MARKS = ((), ("p0",))
WITNESS_SPECS = (
    {"weaker": "Q", "stronger": "L", "max_processors": 2, "max_names": 2,
     "max_variables": 2, "allow_marks": False, "limit": None},
    {"weaker": "L", "stronger": "L2", "max_processors": 2, "max_names": 2,
     "max_variables": 2, "allow_marks": False, "limit": None},
    {"weaker": "fair-S", "stronger": "Q", "max_processors": 2, "max_names": 2,
     "max_variables": 2, "allow_marks": False, "limit": None},
    {"weaker": "Q", "stronger": "L", "max_processors": 3, "max_names": 1,
     "max_variables": 3, "allow_marks": False, "limit": None},
)
#: (slot, spec): DP'-6 is certified (the one long job, about 0.4 s);
#: DP-4 deadlocks; the other two are small symmetric searches.
EXPLORE_SLOTS = (
    (10, {"scenario": {"topology": "dining", "size": 4, "program": "left-first"},
          "max_depth": 8}),
    (35, {"scenario": {"topology": "ring", "size": 4, "model": "Q"},
          "max_depth": 6}),
    (60, {"scenario": {"topology": "dining", "size": 6, "alternating": True,
                       "program": "left-first"}, "max_depth": 10}),
    (85, {"scenario": {"topology": "dining", "size": 4, "alternating": True,
                       "program": "left-first"}, "max_depth": 8}),
)
WITNESS_COPIES = 2
SIM_REPEATS = (
    PHASE_REQUESTS - len(EXPLORE_SLOTS) - WITNESS_COPIES * len(WITNESS_SPECS)
    - len(SIM_TOPOLOGIES) * len(SIM_SIZES) * len(SIM_MARKS)
)
#: (request, the field its error must name)
MALFORMED = (
    ({"op": "similarity", "scenario": {"topology": "ring", "size": "x"}}, "size"),
    ({"op": "explore", "spec": {"scenario": {"topology": "ring", "size": 3},
                                "max_depth": "x"}}, "max_depth"),
)


def build_phase(seed: int) -> List[Dict[str, Any]]:
    """The well-formed requests of one phase, in sending order."""
    rng = random.Random(seed)
    scenarios = [
        {"topology": topology, "size": size, "marks": list(marks)}
        for topology in SIM_TOPOLOGIES for size in SIM_SIZES for marks in SIM_MARKS
    ]
    scenarios += [rng.choice(scenarios) for _ in range(SIM_REPEATS)]
    free = [{"op": "similarity", "scenario": dict(s)} for s in scenarios]
    free += [{"op": "witness", "spec": dict(spec)}
             for spec in WITNESS_SPECS for _ in range(WITNESS_COPIES)]
    rng.shuffle(free)
    fixed = dict(EXPLORE_SLOTS)
    return [
        {"op": "explore", "spec": json.loads(json.dumps(fixed[i]))}
        if i in fixed else free.pop()
        for i in range(PHASE_REQUESTS)
    ]


class StdioClient:
    """Sends request lines to a ``serve --stdio`` process and collects
    answer lines (with their arrival times) on a reader thread."""

    def __init__(self, proc) -> None:
        self.proc = proc
        self.answers: Dict[str, Tuple[float, Dict[str, Any]]] = {}
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            now = time.monotonic()
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if doc.get("kind") != "result":
                continue
            with self._cond:
                self.answers[str(doc.get("id"))] = (now, doc.get("result") or {})
                self._cond.notify_all()

    def send(self, request_id: str, request: Dict[str, Any]) -> float:
        line = json.dumps({"id": request_id, "request": request})
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return time.monotonic()

    def wait_for(self, ids: List[str], timeout: float = ANSWER_TIMEOUT_S) -> bool:
        deadline = time.monotonic() + timeout
        with self._cond:
            while not all(i in self.answers for i in ids):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return True

    def ask(self, request_id: str, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request on its own: send, then wait for its answer."""
        self.send(request_id, request)
        if not self.wait_for([request_id]):
            return None
        return self.answers[request_id][1]

    def close(self) -> None:
        self.proc.stdin.close()
        self._reader.join(timeout=ANSWER_TIMEOUT_S)


def open_loop(client: StdioClient, phase: List[Dict[str, Any]], tag: str,
              rate: float = RATE) -> Dict[str, Any]:
    """Send ``phase`` on a fixed schedule; return per-request due, sent
    and answered times plus answers (None where none came back)."""
    ids = [f"{tag}-{i}" for i in range(len(phase))]
    start = time.monotonic() + 0.05
    due = [start + i / rate for i in range(len(phase))]
    sent = []
    for request_id, request, when in zip(ids, phase, due):
        delay = when - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent.append(client.send(request_id, request))
    client.wait_for(ids)
    answered, answers = [], []
    for request_id in ids:
        got = client.answers.get(request_id)
        answered.append(None if got is None else got[0])
        answers.append(None if got is None else got[1])
    return {"due": due, "sent": sent, "answered": answered, "answers": answers}
