"""Record the default-seed output digests for this numpy version and platform.

    python3 perfsuite/record_digests.py

Runs every chunk of every batch workload, and every warm point plus the
first ``SERVE_MISSES`` new points of serve-mixed, at the default seed,
and stores each point's digest in ``digests.json`` under a key naming
the numpy version and platform (einsum's summation order, and so the
last bits of every result, may differ elsewhere). ``run.py`` at the
default seed then requires every point it simulates to match. Run it
again only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import program  # noqa: E402  (puts the repository's src/ on sys.path)
import workloads  # noqa: E402
from repro.serve.protocol import JobRequest  # noqa: E402
from repro.sim.runner import ParallelRunner  # noqa: E402

#: New serve-mixed points recorded: more than a 40-second run asks.
SERVE_MISSES = 600


def main() -> int:
    seed = workloads.DEFAULT_SEED
    table = {}
    for name, cls in workloads.BATCH_WORKLOADS.items():
        prog = program.Program(name, seed)
        digests = {}
        for k in range(cls.cycle):
            digests.update(prog.chunk(k, traced=False)["digests"])
        table[name] = digests
        print(f"{name}: {len(digests)} points", flush=True)
    mix = workloads.ServeMixed(seed)
    runner = ParallelRunner(jobs=1, cache=None)
    bodies = mix.warm + [mix.miss(j) for j in range(SERVE_MISSES)]
    table["serve-mixed"] = {
        workloads.body_key(body): workloads.digest(
            runner.run_points(JobRequest.parse(body).run_points())[0]
        )
        for body in bodies
    }
    print(f"serve-mixed: {len(bodies)} points")
    key = f"numpy-{np.__version__}|{platform.system()}-{platform.machine()}"
    path = HERE / "digests.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[key] = table
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {key} to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
