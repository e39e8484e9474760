"""The load generator of serve-mixed: a closed loop of keep-alive callers.

Started by ``run.py`` as ``python3 perfsuite/loadgen.py --url URL --seed
N``, in its own process so its threads never share the server's
interpreter lock. Each caller holds one keep-alive
:class:`~repro.serve.client.ServeClient` and sends its next request only
when the previous reply has fully arrived. Every reply is verified: a
re-asked point must return exactly the bytes it returned when it was
warmed. Commands arrive one JSON line at a time on stdin:

* ``warm``: ask every warm point once, before timing;
* ``batch`` (``n``, ``trace``): the next ``n`` scheduled requests,
  with the server's own cache-hit count (``cache_hits`` of each reply)
  beside the number scheduled as re-asks (``designed_hits``);
* ``metrics``: the server's ``queue_wait_seconds`` sum and count;
* ``verify`` (``n``): a seeded sample of served points re-run directly
  through a ``ParallelRunner`` and compared bit for bit;
* ``digests``: every served point's digest; ``exit``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.serve.client import ServeClient, ServeError  # noqa: E402
from repro.serve.protocol import JobRequest  # noqa: E402
from repro.sim.runner import ParallelRunner  # noqa: E402

import workloads  # noqa: E402

#: Keep-alive callers in the closed loop (the box has 2 cores: one for
#: the server, one shared by the callers and the calibration loop).
CALLERS = 2
#: Statuses that mean the server refused the request (queue full or
#: closed, job not done): counted as failures and as ``serve.refused``.
REFUSED = (503, 409)


class LoadGen:
    """Closed-loop callers plus the bookkeeping that verifies replies."""

    def __init__(self, url: str, seed: int):
        self.url = url
        self.seed = seed
        self.mix = workloads.ServeMixed(seed)
        #: body key -> digest of the first reply for that body.
        self.digests: Dict[str, str] = {}
        self.bodies: Dict[str, Tuple[bool, Dict]] = {}
        self._lock = threading.Lock()

    def _check(self, body: Dict, payload: Dict) -> bool:
        """Record the reply's digest; False if it contradicts an earlier one."""
        if payload.get("n_points") != 1:
            return False
        dig = workloads.digest_dict(payload["points"][0]["result"])
        key = workloads.body_key(body)
        with self._lock:
            first = self.digests.setdefault(key, dig)
        return first == dig

    def warm(self) -> Dict:
        failed = 0
        with ServeClient(self.url) as client:
            for body in self.mix.warm:
                self.bodies[workloads.body_key(body)] = (True, body)
                try:
                    if not self._check(body, client.run(body)):
                        failed += 1
                except ServeError:
                    failed += 1
        return {"n": len(self.mix.warm), "failed": failed}

    def batch(self, n: int, trace: bool, hits_only: bool = False) -> Dict:
        if hits_only:
            rng = random.Random(f"hits:{self.seed}:{n}")
            todo = [(True, rng.choice(self.mix.warm)) for _ in range(n)]
        else:
            todo = self.mix.schedule(n)
        for hit, body in todo:
            self.bodies.setdefault(workloads.body_key(body), (hit, body))
        # Chip-steps of each miss, worked out before the batch is timed.
        work = [(hit, body, 0 if hit else self._steps(body)) for hit, body in todo]
        lat: Dict[str, List[float]] = {"hit": [], "miss": []}
        counts = {"ok": 0, "refused": 0, "failed": 0, "miss_steps": 0,
                  "cache_hits": 0}
        cursor = iter(work)

        def caller() -> None:
            with ServeClient(self.url, trace=trace) as client:
                while True:
                    with self._lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    hit, body, steps = item
                    try:
                        payload = client.run(body)
                        good = self._check(body, payload)
                        status = "ok" if good else "failed"
                    except ServeError as exc:
                        status = "refused" if exc.status in REFUSED else "failed"
                    except OSError:
                        status = "failed"
                    with self._lock:
                        counts[status] += 1
                        if status == "ok":
                            lat["hit" if hit else "miss"].append(
                                client.last_attempt_latencies_s[-1]
                            )
                            counts["miss_steps"] += steps
                            counts["cache_hits"] += payload.get("cache_hits", 0)

        threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "n": len(todo), "lat_hit": lat["hit"],
                "lat_miss": lat["miss"],
                "designed_hits": sum(hit for hit, _ in todo), **counts}

    @staticmethod
    def _steps(body: Dict) -> int:
        """Chip-steps the server simulates for a request it has not seen."""
        points = JobRequest.parse(body).run_points()
        return sum(workloads.n_steps(p) for p in points)

    def metrics(self) -> Dict:
        with ServeClient(self.url) as client:
            text = client.metrics_text()
        out = {}
        for line in text.splitlines():
            for suffix in ("sum", "count"):
                if line.startswith(f"queue_wait_seconds_{suffix} "):
                    out[suffix] = float(line.split()[1])
        return out

    def verify(self, n: int) -> Dict:
        """Served results versus direct runner runs of the same request."""
        rng = random.Random(f"serve-verify:{self.seed}")
        keys = sorted(self.digests)
        sample = rng.sample(keys, min(n, len(keys)))
        runner = ParallelRunner(jobs=1, cache=None)
        mismatches = []
        for key in sample:
            _hit, body = self.bodies[key]
            results = runner.run_points(JobRequest.parse(body).run_points())
            if workloads.digest(results[0]) != self.digests[key]:
                mismatches.append(key)
        return {"checked": len(sample), "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    reply_fd = os.dup(1)
    os.dup2(2, 1)
    replies = os.fdopen(reply_fd, "w", buffering=1)

    def send(obj) -> None:
        replies.write(json.dumps(obj) + "\n")

    gen = LoadGen(args.url, args.seed)
    send({"event": "ready"})
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["cmd"]
        if op == "warm":
            send(gen.warm())
        elif op == "batch":
            send(gen.batch(cmd["n"], cmd["trace"], cmd.get("hits_only", False)))
        elif op == "metrics":
            send(gen.metrics())
        elif op == "verify":
            send(gen.verify(cmd["n"]))
        elif op == "digests":
            send(gen.digests)
        elif op == "exit":
            send({"event": "bye"})
            return 0
        else:
            raise ValueError(f"unknown command {op!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
