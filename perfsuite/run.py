"""Repository benchmark: one workload, one seed, end to end or layer by layer.

    python3 perfsuite/run.py --workload paper-grid --seed 3 --seconds 20 --trace 0

Run from the repository root. The benchmark drives the program as a
user does, in processes of its own, and times calls into the program's
public functions from outside:

* paper-grid, manycore-fleet and fault-campaign run in one program
  process (``program.py``) with a ``--jobs 1`` runner;
* serve-mixed runs one ``repro --jobs 1 serve`` process
  (``serve_main.py``) and one load-generator process (``loadgen.py``)
  with two keep-alive callers in a closed loop.

Every timed chunk of program work is bracketed by the calibration loop
of ``calib.py``, run here while the program is idle, and its host time
is rescaled to the loop's nominal speed. ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs each chunk untraced and traced,
checks that both give the same outputs and paths, and prints every
per-layer metric. The last stdout line is the JSON result; the full
record (raw values, calibration rates, environment, checks) is written
under ``.bench_build/perfsuite/records/``. See ``perfsuite/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("paper-grid", "manycore-fleet", "serve-mixed", "fault-campaign")
DEFAULT_SEED = 0

#: Fresh program processes started per run to measure set-up time; the
#: last one goes on to do the measured work.
SETUP_SAMPLES = 3
#: A run does a fixed amount of work, set by --seconds at nominal speed,
#: so two versions of the program are measured on identical work (a
#: faster one simply finishes sooner). Batch workloads: nominal seconds
#: per chunk; the chunk count is rounded to whole cycles of distinct
#: chunks (all 12 Table 8 rows on paper-grid) and is at least MIN_CHUNKS,
#: because chunk-to-chunk noise on this host is too fast for the
#: calibration to follow and only a median over many chunks absorbs it.
CHUNK_S = {"paper-grid": 1.6, "manycore-fleet": 2.5, "fault-campaign": 3.0}
MIN_CHUNKS = 8
#: serve-mixed: requests per timed batch, and timed requests per second
#: of --seconds. The request count, not the clock, ends a serve run, so
#: a faster server does the same work (and grows the same caches) in
#: less time. At least SERVE_MIN_REQUESTS, so that at least 10
#: latencies lie beyond the p99.
SERVE_BATCH = 150
SERVE_REQUESTS_PER_S = 150
SERVE_MIN_REQUESTS = 1200
SERVE_TRACED_HITS = 300
#: Sample sizes of the fleet-versus-scalar and served-versus-direct checks.
VERIFY_FLEET = 2
VERIFY_SERVE = 8
#: Hard stop: a run never outlives this, whatever hangs.
RUN_LIMIT_S = 170

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx]


class Child:
    """A benchmark child process speaking one JSON line per command."""

    def __init__(self, argv: List[str], env: Dict[str, str]):
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark child process exited unexpectedly")
        return json.loads(line)

    def request(self, cmd: Dict) -> Dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (all threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def environment() -> Dict:
    """Environment stamp: interpreter, numpy, BLAS, cores, load."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy builds differ in what they expose
        blas_name = f"unknown ({type(exc).__name__})"
    thread_vars = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "blas_thread_env": thread_vars,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def openblas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, read from the library numpy loaded.

    This process inherits the environment the program processes get, so
    the count is theirs too. ``None`` when numpy uses another BLAS.
    """
    import numpy.linalg  # noqa: F401  (loads the BLAS library)

    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def digest_table() -> Optional[Dict[str, Dict[str, str]]]:
    """Recorded default-seed digests for this numpy version and platform."""
    import numpy as np

    path = BENCH / "digests.json"
    if not path.exists():
        return None
    key = f"numpy-{np.__version__}|{platform.system()}-{platform.machine()}"
    return json.loads(path.read_text()).get(key)


def flag_bound() -> float:
    """A run whose calibration rate swings by more than this share of its
    median is flagged: the largest end-to-end bound in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return max(m["bound"] for m in spec["end_to_end"])


@dataclass
class Timed:
    """One calibrated measurement: raw host seconds and the loop's rate."""

    raw_s: float
    rate: float

    @property
    def cal_s(self) -> float:
        return self.raw_s * calib.scale(self.rate)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failures.append(what)


#: Before each calibration the program processes must be idle: at most
#: this share of one CPU over IDLE_WINDOW_S, within IDLE_WAIT_S.
IDLE_SHARE = 0.3
IDLE_WINDOW_S = 0.05
IDLE_WAIT_S = 0.5


#: Calibration loop processes run at once (see calib.py), and rates
#: taken before any program process starts (the fastest stands in for a
#: calibration the program contaminates).
CALIB_WORKERS = 2
CLEAN_SAMPLES = 3


class Calibrator:
    """Runs the calibration loop and remembers every rate it measured.

    The loop runs in ``CALIB_WORKERS`` processes at once; the rate is
    their mean. It must only run while the program is idle. A program process
    that keeps burning CPU between commands (a stray background thread)
    would slow the loop and make the program look faster than it is, so
    then the fastest rate measured before any program process existed
    stands in: the host is assumed at its best, and any slowness is
    charged to the program. The calibration counts as contaminated.
    """

    def __init__(self):
        self.rates: List[float] = []
        self.watch: List[int] = []
        self.contaminated = 0
        self.workers = [
            subprocess.Popen([sys.executable, str(BENCH / "calib.py")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, bufsize=1)
            for _ in range(CALIB_WORKERS)
        ]
        self._loop()  # first calls run cold; discard
        self.clean = max(self.measure() for _ in range(CLEAN_SAMPLES))
        self.last = self.rates[-1]

    def close(self) -> None:
        for proc in self.workers:
            proc.stdin.close()
            proc.wait(timeout=10)
            proc.stdout.close()

    def _loop(self) -> float:
        for proc in self.workers:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return statistics.fmean(float(proc.stdout.readline()) for proc in self.workers)

    def _busy(self) -> bool:
        deadline = time.monotonic() + IDLE_WAIT_S
        while True:
            before = sum(proc_cpu_s(pid) for pid in self.watch)
            time.sleep(IDLE_WINDOW_S)
            used = sum(proc_cpu_s(pid) for pid in self.watch) - before
            if used <= IDLE_SHARE * IDLE_WINDOW_S:
                return False
            if time.monotonic() > deadline:
                return True

    def measure(self) -> float:
        if self.watch and self._busy():
            self.contaminated += 1
            return self.clean
        rate = self._loop()
        self.rates.append(rate)
        return rate

    def time(self, fn):
        """Run ``fn`` between calibrations; returns ``(result, rate)``."""
        before = self.last
        out = fn()
        self.last = self.measure()
        return out, calib.bracket_rate(before, self.last)


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["TMPDIR"] = str(work)
    return env


def metric(value: float, unit: str, samples: int, raw: Optional[float] = None,
           rate: Optional[float] = None) -> Dict:
    out = {"value": value, "unit": unit, "samples": samples}
    if raw is not None:
        out["raw"] = raw
        out["calib_rate"] = rate
    return out


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


def measure_setups(cal: Calibrator, start, cleanup: List):
    """Start ``SETUP_SAMPLES`` program processes; returns (samples, last).

    Each start is timed from process launch to ready for work; all but
    the last are stopped again.
    """
    samples = []
    child = None
    for i in range(SETUP_SAMPLES):
        def launch():
            t0 = time.perf_counter()
            proc = start()
            elapsed = time.perf_counter() - t0
            cal.watch = [proc.pid]
            return proc, elapsed

        (child, raw), rate = cal.time(launch)
        cleanup.append(child.kill)
        samples.append(Timed(raw, rate))
        if i < SETUP_SAMPLES - 1:
            child.stop()
    return samples, child


class BatchProgram:
    """Handle on a running ``program.py``."""

    def __init__(self, argv, env):
        self.child = Child(argv, env)
        ready = self.child.read()
        if ready.get("event") != "ready":
            raise RuntimeError(f"unexpected start-up reply {ready}")
        self.cycle = ready["cycle"]

    def stop(self) -> None:
        self.child.request({"cmd": "exit"})
        self.child.proc.wait(timeout=30)
        self.child.close()

    def kill(self) -> None:
        self.child.close()

    @property
    def pid(self) -> int:
        return self.child.proc.pid


def chunk_count(workload: str, seconds: float, cycle: int) -> int:
    """Chunks a batch run measures: whole cycles, about ``seconds`` long."""
    n = max(MIN_CHUNKS, round(seconds / CHUNK_S[workload]))
    return max(1, round(n / cycle)) * cycle if cycle > 1 else n


def run_batch(args, work: Path, cal: Calibrator, ledger: Ledger, record: Dict,
              cleanup: List) -> Dict:
    env = child_env(work)
    argv = [sys.executable, str(BENCH / "program.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.plant:
        argv += ["--plant", args.plant]
    if args.trace:
        argv.append("--trace")
    setups, prog = measure_setups(cal, lambda: BatchProgram(argv, env), cleanup)
    child = prog.child
    digests = digest_table() if args.seed == DEFAULT_SEED else None
    seen: Dict[str, str] = {}

    def check_digests(reply: Dict, what: str) -> None:
        ledger.check(reply["sane"] == reply["points"], f"{what}: insane result",
                     n=0)
        for pid, dig in reply["digests"].items():
            ok = seen.setdefault(pid, dig) == dig
            if digests is not None:
                ok = ok and digests.get(args.workload, {}).get(pid) == dig
            ledger.check(ok, f"{what}: digest {pid}")

    chunks: List[Dict] = []
    overhead: List[float] = []
    n_chunks = chunk_count(args.workload, args.seconds, prog.cycle)
    for k in range(n_chunks):
        modes = [False, True] if args.trace else [False]
        if args.trace and k % 2:
            modes.reverse()
        pair = {}
        for traced in modes:
            reply, rate = cal.time(
                lambda: child.request({"cmd": "chunk", "k": k, "traced": traced})
            )
            reply["rate"] = rate
            check_digests(reply, f"chunk {k}{' traced' if traced else ''}")
            if traced:
                ledger.check(reply["paths"] == reply["expected_paths"],
                             f"chunk {k}: paths {reply['paths']} != "
                             f"{reply['expected_paths']}")
            pair[traced] = reply
            if not traced:
                chunks.append(reply)
        if args.trace:
            plain, traced_reply = pair[False], pair[True]
            overhead.append(
                (Timed(traced_reply["elapsed_s"], traced_reply["rate"]).cal_s
                 / Timed(plain["elapsed_s"], plain["rate"]).cal_s - 1.0) * 100
            )

    verify = child.request({"cmd": "verify", "n": VERIFY_FLEET})
    for pid in verify["mismatches"]:
        ledger.failures.append(f"fleet member != scalar run: {pid}")
    ledger.attempted += verify["checked"]
    layer_values = child.request({"cmd": "layers"}) if args.trace else {}
    prog.stop()
    peak = max(c["maxrss_mb"] for c in chunks)
    record["chunks"] = [
        {"raw_s": c["elapsed_s"], "rate": c["rate"], "points": c["points"],
         "steps": c["steps"], "cpu_s": c["cpu_s"]}
        for c in chunks
    ]

    record["checks"] = {
        "default_seed_digests": (
            "n/a (not the default seed)" if args.seed != DEFAULT_SEED
            else "checked" if digests is not None
            else "not recorded for this numpy version and platform"
        ),
        "fleet_vs_scalar_checked": verify["checked"],
    }
    timed = [Timed(c["elapsed_s"], c["rate"]) for c in chunks]
    rate_mid = statistics.median(t.rate for t in timed)
    n = len(timed)

    def per_s(key, attr):
        return statistics.median(c[key] / getattr(t, attr) for c, t in zip(chunks, timed))

    cpu = sum(c["cpu_s"] for c in chunks) / sum(c["elapsed_s"] for c in chunks)
    if args.trace:
        values = dict(layer_values, **{"obs.trace_overhead_pct": statistics.median(overhead)})
        return layer_result(values, cal, cpu, rate_mid)
    return {
        "setup_s": setup_metric(setups),
        "sim_steps_per_s": metric(per_s("steps", "cal_s"), "1/s", n,
                                  per_s("steps", "raw_s"), rate_mid),
        "req_per_s": metric(per_s("points", "cal_s"), "1/s", n,
                            per_s("points", "raw_s"), rate_mid),
        "latency_p50_ms": metric(
            statistics.median(t.cal_s for t in timed) * 1e3, "ms", n,
            statistics.median(t.raw_s for t in timed) * 1e3, rate_mid),
        "latency_p99_ms": metric(
            percentile([t.cal_s for t in timed], 0.99) * 1e3, "ms", n,
            percentile([t.raw_s for t in timed], 0.99) * 1e3, rate_mid),
        "peak_rss_mb": metric(peak, "MB", 1),
        "host.cpu_per_wall": cpu,
    }


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeProcess:
    """``serve_main.py`` running ``repro --jobs 1 serve`` on a free port."""

    def __init__(self, env, plant: Optional[str], layers_out: Optional[Path]):
        argv = [sys.executable, str(BENCH / "serve_main.py")]
        if plant:
            argv += ["--plant", plant]
        if layers_out is not None:
            argv += ["--layers-out", str(layers_out)]
        argv += ["--", "--jobs", "1", "serve", "--port", "0"]
        self.layers_out = layers_out
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]
        self.pid = self.proc.pid

    def arm_layers(self) -> None:
        armed = self.layers_out.with_name(self.layers_out.name + ".armed")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not armed.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server did not install the layer timers")
            time.sleep(0.01)

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_serve(args, work: Path, cal: Calibrator, ledger: Ledger, record: Dict,
              cleanup: List) -> Dict:
    env = child_env(work)
    layers_out = work / "layers.json" if args.trace else None
    setups, server = measure_setups(
        cal, lambda: ServeProcess(env, args.plant, layers_out), cleanup
    )
    gen = Child([sys.executable, str(BENCH / "loadgen.py"), "--url", server.url,
                 "--seed", str(args.seed)], env)
    cleanup.append(gen.close)
    if gen.read().get("event") != "ready":
        raise RuntimeError("load generator did not start")
    cal.watch = [server.pid, gen.proc.pid]
    warm = gen.request({"cmd": "warm"})
    ledger.check(warm["failed"] == 0, "warm-up requests failed", n=warm["n"])
    pid = server.pid
    refused = 0
    cache_hits = {"served": 0, "designed": 0}

    def check_cache(reply: Dict, what: str) -> None:
        """Every re-asked point must be a cache hit, and nothing else."""
        cache_hits["served"] += reply["cache_hits"]
        cache_hits["designed"] += reply["designed_hits"]
        ledger.check(reply["cache_hits"] == reply["designed_hits"],
                     f"{what}: {reply['cache_hits']} cache hits, "
                     f"{reply['designed_hits']} designed")

    def run_batches(requests: int) -> List[Dict]:
        nonlocal refused
        out = []
        while sum(b["n"] for b in out) < requests:
            def one():
                c0 = proc_cpu_s(pid)
                w0 = time.perf_counter()
                reply = gen.request({"cmd": "batch", "n": SERVE_BATCH, "trace": False})
                reply["server_cpu_s"] = proc_cpu_s(pid) - c0
                reply["host_wall_s"] = time.perf_counter() - w0
                return reply

            reply, rate = cal.time(one)
            reply["rate"] = rate
            check_cache(reply, f"batch {len(out)}")
            refused += reply["refused"]
            ledger.attempted += reply["n"]
            ledger.failures.extend(
                ["request refused or unverified"] * (reply["n"] - reply["ok"])
            )
            out.append(reply)
        return out

    requests = max(SERVE_MIN_REQUESTS, round(args.seconds * SERVE_REQUESTS_PER_S))
    if args.trace:
        plain = run_batches(requests // 2)
        traced_hits, _ = cal.time(lambda: gen.request(
            {"cmd": "batch", "n": SERVE_TRACED_HITS, "trace": True,
             "hits_only": True}))
        ledger.check(traced_hits["ok"] == traced_hits["n"],
                     "traced-client requests failed", n=traced_hits["n"])
        check_cache(traced_hits, "traced-client batch")
        server.arm_layers()
        q0 = gen.request({"cmd": "metrics"})
        batches = run_batches(requests // 2)
        q1 = gen.request({"cmd": "metrics"})
    else:
        batches = run_batches(requests)

    verify = gen.request({"cmd": "verify", "n": VERIFY_SERVE})
    for key in verify["mismatches"]:
        ledger.failures.append(f"served != direct: {key}")
    ledger.attempted += verify["checked"]
    digests = digest_table() if args.seed == DEFAULT_SEED else None
    unrecorded = 0
    if digests is not None:
        recorded = digests.get(args.workload, {})
        for key, dig in gen.request({"cmd": "digests"}).items():
            if key in recorded:
                ledger.check(recorded[key] == dig, f"digest {key}", n=0)
            else:
                unrecorded += 1
    record["checks"] = {
        "default_seed_digests": (
            "n/a (not the default seed)" if args.seed != DEFAULT_SEED
            else "checked" if digests is not None
            else "not recorded for this numpy version and platform"
        ),
        "served_vs_direct_checked": verify["checked"],
        "unrecorded_points": unrecorded,
        "cache_hits": cache_hits,
    }
    peak = proc_peak_rss_mb(pid)
    gen.request({"cmd": "exit"})
    server.stop()

    rate_mid = statistics.median(b["rate"] for b in batches)
    cpu = sum(b["server_cpu_s"] for b in batches) / sum(b["host_wall_s"] for b in batches)
    record["chunks"] = [
        {"raw_s": b["wall_s"], "rate": b["rate"], "points": b["ok"],
         "steps": b["miss_steps"], "cpu_s": b["server_cpu_s"]}
        for b in batches
    ]
    if args.trace:
        dump = json.loads(layers_out.read_text())
        values = dict(dump["metrics"])
        snap = dump["snapshot"]
        lat = [x for b in batches for x in b["lat_hit"] + b["lat_miss"]]

        def cal_mean(bs):
            return statistics.fmean(x * calib.scale(b["rate"]) for b in bs
                                    for x in b["lat_hit"] + b["lat_miss"])

        dq = (q1.get("sum", 0) - q0.get("sum", 0), q1.get("count", 0) - q0.get("count", 0))
        queue_ms = dq[0] / dq[1] * 1e3 if dq[1] else 0.0
        n_exec = sum(snap["calls"].get(f"serve.execute_{k}", 0) for k in ("hit", "miss"))
        exec_ms = (sum(snap["total"].get(f"serve.execute_{k}", 0.0) for k in ("hit", "miss"))
                   / n_exec * 1e3 if n_exec else 0.0)
        values.update({
            "serve.outside_execute_ms": statistics.fmean(lat) * 1e3 - queue_ms - exec_ms,
            "serve.queue_wait_ms": queue_ms,
            "serve.refused": float(refused),
            "obs.trace_overhead_pct": (cal_mean(batches) / cal_mean(plain) - 1) * 100,
            "obs.traced_hit_p50_ms": statistics.median(traced_hits["lat_hit"]) * 1e3,
        })
        return layer_result(values, cal, cpu, rate_mid)

    lat_cal, lat_raw = [], []
    for b in batches:
        s = calib.scale(b["rate"])
        for x in b["lat_hit"] + b["lat_miss"]:
            lat_raw.append(x * 1e3)
            lat_cal.append(x * 1e3 * s)
    p99 = percentile(lat_cal, 0.99)
    record["latency"] = {
        "samples": len(lat_cal),
        "beyond_p99": sum(1 for x in lat_cal if x > p99),
        "hits": sum(len(b["lat_hit"]) for b in batches),
        "misses": sum(len(b["lat_miss"]) for b in batches),
    }

    def per_s(count, calibrated):
        return statistics.median(
            count(b) / (b["wall_s"] * (calib.scale(b["rate"]) if calibrated else 1.0))
            for b in batches
        )

    n = len(batches)
    return {
        "setup_s": setup_metric(setups),
        "sim_steps_per_s": metric(
            per_s(lambda b: b["miss_steps"], True), "1/s", n,
            per_s(lambda b: b["miss_steps"], False), rate_mid),
        "req_per_s": metric(per_s(lambda b: b["ok"], True), "1/s", n,
                            per_s(lambda b: b["ok"], False), rate_mid),
        "latency_p50_ms": metric(statistics.median(lat_cal), "ms", len(lat_cal),
                                 statistics.median(lat_raw), rate_mid),
        "latency_p99_ms": metric(p99, "ms", len(lat_cal),
                                 percentile(lat_raw, 0.99), rate_mid),
        "peak_rss_mb": metric(peak, "MB", 1),
        "host.cpu_per_wall": cpu,
    }


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def setup_metric(setups: List[Timed]) -> Dict:
    return metric(statistics.median(s.cal_s for s in setups), "s", len(setups),
                  statistics.median(s.raw_s for s in setups),
                  statistics.median(s.rate for s in setups))


def layer_result(values: Dict[str, float], cal: Calibrator, cpu: float,
                 rate_mid: float) -> Dict:
    """Per-layer metrics: host times calibrated at the run's median rate."""
    factor = calib.scale(rate_mid)
    out = {}
    for name, (unit, _better) in layers.PER_LAYER.items():
        raw = values.get(name, 0.0)
        if unit in ("us", "ms"):
            out[name] = metric(raw * factor, unit, 1, raw, rate_mid)
        else:
            out[name] = metric(raw, unit, 1)
    out["host.cpu_per_wall"] = metric(cpu, "ratio", 1)
    out["host.calib_rate"] = metric(statistics.median(cal.rates), "1/s", len(cal.rates))
    out["host.calib_spread_pct"] = metric(calib.spread(cal.rates) * 100, "%", len(cal.rates))
    return out


def print_table(metrics: Dict[str, Dict]) -> None:
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} {'n':>6s} {'raw':>14s} {'calib rate':>11s}")
    for name, m in metrics.items():
        raw = f"{m['raw']:.6g}" if "raw" in m else "-"
        rate = f"{m['calib_rate']:.1f}" if m.get("calib_rate") else "-"
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s} {m['samples']:6d} "
              f"{raw:>14s} {rate:>11s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default=None, choices=layers.PLANTS,
                        help="self-test only: slow the program down at one place")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfsuite: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    def expire(_signum, _frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    def terminate(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, terminate)
    signal.alarm(RUN_LIMIT_S)
    build = ROOT / ".bench_build" / "perfsuite"
    work = build / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    cleanup: List = []
    record: Dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "plant": args.plant, "env": environment()}
    ledger = Ledger()
    cal = Calibrator()
    cleanup.append(cal.close)
    try:
        if args.workload == "serve-mixed":
            metrics = run_serve(args, work, cal, ledger, record, cleanup)
        else:
            metrics = run_batch(args, work, cal, ledger, record, cleanup)
    finally:
        for fn in reversed(cleanup):
            fn()
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)

    spread = calib.spread(cal.rates)
    bound = flag_bound()
    record["calibration"] = {
        "contaminated": cal.contaminated,
        "rates": cal.rates,
        "median": statistics.median(cal.rates),
        "spread": spread,
        "flagged": spread > bound,
        "flag_bound": bound,
    }
    record["env"]["calib_rate"] = statistics.median(cal.rates)
    record["env"]["loadavg_end"] = list(os.getloadavg())
    if cal.contaminated:
        print(f"perfsuite: the program was busy while idle at {cal.contaminated} "
              "calibration(s); used the fastest clean rate there", file=sys.stderr)
    if spread > bound:
        print(f"perfsuite: calibration rate swung {spread:.0%} within the run "
              f"(bound {bound:.0%}); treat this run with suspicion", file=sys.stderr)
    if not args.trace:
        cpu = metrics.pop("host.cpu_per_wall")
        metrics["success_ratio"] = metric(
            (ledger.attempted - len(ledger.failures)) / ledger.attempted, "ratio",
            ledger.attempted)
        record["host"] = {"cpu_per_wall": cpu}
    record["metrics"] = metrics
    record["attempted"] = ledger.attempted
    record["failures"] = ledger.failures[:50]
    records = build / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"perfsuite {args.workload} seed={args.seed} trace={args.trace} "
          f"calib={record['calibration']['median']:.0f}/s spread={spread:.1%}")
    print_table(metrics)
    for failure in ledger.failures[:10]:
        print(f"FAILED: {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
