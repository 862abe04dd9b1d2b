"""rlab scenario benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every operation is one scenario run
through ``rlab.cli.run`` in a fresh interpreter (``perfbench/worker.py``), so
no run inherits a warmed allocator or imported modules.  No ``MALLOC_*`` or
thread variables are set; ``PYTHONDONTWRITEBYTECODE`` is dropped, so rlab is
imported from cached bytecode as an installed copy would be.

``--trace 0`` measures the end-to-end metrics: pairs of one set-up-only
interpreter and one scenario run, back to back while the next pair is
expected to finish within ``--seconds`` (at least one).  Each scenario's wall
and CPU time is divided by the time of a fixed kernel run just before and just
after it in the same worker (``calibration.py``), which cancels the host's
speed drift; set-up and memory are reported as measured.  ``--trace 1`` makes
one untraced run, two traced runs and one probe run and reports the
per-layer metrics.  Every run
is checked: exit status, manifest assertions, artifact digests, identical
artifacts across the runs of one invocation, and at the workload's default
seed the checked outputs against ``reference.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracer import LAYERS
from workloads import HERE, ROOT, SRC, WORKLOADS

DEADLINE_S = 170.0        # every invocation ends well inside 180 s
TRACED_RUNS = 2           # counts must repeat exactly between these
# Outputs may move by FFT roundoff (swapping numpy.fft for scipy.fft moved them
# by at most 8e-15 relative); a wrong answer moves them by far more than this.
REFERENCE_RTOL = 1e-9
# While the calibration kernel runs the process should use about one CPU per
# kernel thread; more means rlab left work running that would slow the kernel
# and so flatter the timings divided by it.
CALIB_CPU_SHARE_MAX = 1.25
PERSIST_SPANS = ("cli.write_csv", "flows.save_trajectory",
                 "cli.RunManifest.add_artifact", "cli.RunManifest.write")
OUT_ROOT = ROOT / ".perfbench-out"
# Workers get the caller's environment, except that bytecode caching is left
# on: an installed rlab imports from cached bytecode, so set-up is timed so.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def spawn(mode: str, workload: str, seed: int, out_dir: pathlib.Path, deadline: Deadline):
    """Run one worker; returns (setup_s, result dict or None, error or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    killer = threading.Timer(max(1.0, deadline.left()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if deadline.left() <= 0:
        return None, None, f"{mode} worker stopped at the deadline"
    if ready.strip() != "ready":
        return None, None, f"{mode} worker failed before set-up finished (exit {proc.returncode})"
    if proc.returncode != 0:
        return setup_s, None, f"{mode} worker exited with {proc.returncode}"
    if mode == "setup":
        return setup_s, None, None
    try:
        return setup_s, json.loads(out.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return setup_s, None, f"{mode} worker printed no result"


def _digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: pathlib.Path) -> list[list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def check_run(workload, seed: int, out_dir: pathlib.Path, result: dict) -> tuple[list[str], dict]:
    """Problems found in one scenario run, and its artifact digests."""
    problems = [f"assertion {k} is false" for k, ok in result["assertions"].items() if not ok]
    if result["calib_cpu_share"] > CALIB_CPU_SHARE_MAX:
        problems.append(f"the process used {result['calib_cpu_share']:.2f} CPUs per calibration"
                        " thread: something kept running beside the kernel")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digests = manifest["artifacts"]
    for rel, digest in digests.items():
        path = out_dir / rel
        if not path.is_file() or _digest(path) != digest:
            problems.append(f"artifact {rel} does not match its manifest digest")
    if seed == workload.default_seed:
        ref = json.loads((HERE / "reference.json").read_text())[workload.name]
        for name in workload.checked_files:
            got, want = _read_csv(out_dir / name), ref["files"][name]
            if len(got) != len(want) or any(
                len(g) != len(w) or not all(_close(x, y) for x, y in zip(g, w))
                for g, w in zip(got, want)
            ):
                problems.append(f"{name} differs from the reference beyond rtol {REFERENCE_RTOL}")
        for key in workload.checked_values:
            got = result["values"].get(key)
            if got is None or not _close(float(got), ref["values"][key]):
                problems.append(f"{key} = {got} differs from the reference {ref['values'][key]}")
    return problems, digests


def scenario_run(mode, workload, seed, deadline, log, tag):
    """One worker scenario run, checked; returns (setup_s, result, digests, ok)."""
    out_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        setup_s, result, error = spawn(mode, workload.name, seed, out_dir, deadline)
        if error:
            log(f"{tag}: {error}")
            return setup_s, None, None, False
        problems, digests = check_run(workload, seed, out_dir, result)
        result["persist_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for p in problems:
        log(f"{tag}: {p}")
    return setup_s, result, digests, not problems


def environment() -> dict:
    """What the timings depend on besides the code; the FFT backend is logged
    by the traced run, which sees the calls."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_settings": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS") or k.startswith("MALLOC_")
                            or k == "RLAB_THREADS"},
        "commit": _commit(),
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def end_to_end(workload, seed, seconds, deadline, log):
    attempted = failed = 0
    setups, runs = [], []
    spawn("setup", workload.name, seed, OUT_ROOT, deadline)  # fills __pycache__
    first_digests = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        # a set-up-only interpreter before each scenario run spreads the
        # set-up samples over the whole invocation
        t0 = time.perf_counter()
        attempted += 2
        setup_s, _, error = spawn("setup", workload.name, seed, OUT_ROOT, deadline)
        if error:
            failed += 1
            log(f"setup: {error}")
        else:
            setups.append(setup_s)
        setup_s, result, digests, ok = scenario_run("run", workload, seed, deadline, log,
                                                    f"run{attempted}")
        longest = max(longest, time.perf_counter() - t0)
        if setup_s is not None:
            setups.append(setup_s)
        if ok and first_digests is not None and digests != first_digests:
            ok = False
            log(f"run{attempted}: artifacts differ from the first run at the same seed")
        if ok:
            first_digests = first_digests or digests
            runs.append(result)
        else:
            failed += 1
        elapsed = time.perf_counter() - start
        if result is None or elapsed + longest > seconds or deadline.left() < 2 * longest:
            break
    metrics = {}
    if runs and setups:
        metrics = {
            "wall_rel": (statistics.median(r["wall_s"] / r["calib_s"] for r in runs), "x"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_rel": (statistics.median(r["cpu_s"] / r["calib_s"] for r in runs), "x"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        log(f"{len(runs)} scenario runs, {len(setups)} set-up samples; medians: "
            + ", ".join(f"{k} {statistics.median(r[k] for r in runs):.4f} s"
                        for k in ("wall_s", "cpu_s", "calib_s")))
        log("wall_s/calib_s per run: " + " ".join(f"{r['wall_s']:.3f}/{r['calib_s']:.4f}"
                                                  for r in runs))
    return attempted, failed, metrics


def _counts(trace: dict) -> dict:
    keys = ("calls", "layer_calls", "fft_by_layer", "fft_by_name", "steps", "fft_flop", "fft_bytes")
    return {k: trace[k] for k in keys}


def per_layer(workload, seed, deadline, log):
    attempted, failed = 1, 0
    _, base, base_digests, ok = scenario_run("run", workload, seed, deadline, log, "untraced")
    if not ok:
        return attempted, 1, {}
    traces, walls = [], []
    for i in range(TRACED_RUNS):
        attempted += 1
        _, result, digests, ok = scenario_run("trace", workload, seed, deadline, log, f"traced{i}")
        if ok and digests != base_digests:
            ok = False
            log(f"traced{i}: traced artifacts differ from the untraced run")
        if ok and traces and _counts(result["trace"]) != _counts(traces[0]):
            ok = False
            log(f"traced{i}: calls or FFT counts differ from the first traced run")
        if not ok:
            failed += 1
            continue
        traces.append(result["trace"])
        walls.append(result["wall_s"])
    attempted += 1
    _, probes, error = spawn("probe", workload.name, seed, OUT_ROOT, deadline)
    if error:
        log(f"probe: {error}")
        failed += 1
    if failed:
        return attempted, failed, {}

    t = traces[0]
    calls = t["calls"]

    def median_of(key, sub):
        return statistics.median(tr[key].get(sub, 0.0) for tr in traces)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for layer in LAYERS:
        n = sum(v for k, v in calls.items()
                if k.startswith(layer + ".") and not k.endswith(".<import>"))
        metrics[f"{layer}.calls"] = (n, "count")
        metrics[f"{layer}.self_s"] = (median_of("layer_self_s", layer), "s")
    fft_calls = t["layer_calls"].get("fft", 0)
    fft_self = median_of("layer_self_s", "fft")
    ladder_steps = t["steps"].get("duhamel._born_ladder", 0)
    strang_steps = t["steps"].get("flows._strang_loop", 0)
    metrics.update({
        "fft.calls": (fft_calls, "count"),
        "fft.self_s": (fft_self, "s"),
        "fft.us_per_call": (1e6 * ratio(fft_self, fft_calls), "us"),
        "fft.gflop": (t["fft_flop"] / 1e9, "GFLOP"),
        "fft.bytes": (t["fft_bytes"], "bytes"),
        "duhamel.fft_per_step": (ratio(t["fft_by_layer"].get("duhamel", 0), ladder_steps), "count"),
        "flows.fft_per_step": (ratio(t["fft_by_layer"].get("flows", 0), strang_steps), "count"),
        "bands.band_multiplier.calls": (calls.get("bands.band_multiplier", 0), "count"),
        "norms.x_norm.calls": (calls.get("norms.x_norm", 0), "count"),
        "potentials.certify.calls": (calls.get("potentials.certify", 0), "count"),
        "cli.persist_s": (statistics.median(
            sum(tr["inclusive_s"].get(k, 0.0) for k in PERSIST_SPANS) for tr in traces), "s"),
        "cli.persist_bytes": (base["persist_bytes"], "bytes"),
        "process.minor_faults": (base["minor_faults"], "count"),
        "tracing.overhead_s": (statistics.median(walls) - base["wall_s"], "s"),
    })
    for name in ("duhamel.ladder_step_ms", "flows.step_ms", "norms.x_norm.ms_per_call",
                 "potentials.certify.ms_per_call"):
        metrics[name] = (probes[name], "ms")
    backends = sorted({k[4:].rsplit(".", 1)[0] for k in calls if k.startswith("fft.")})
    log(f"fft backend (modules whose FFTs rlab called): {', '.join(backends) or 'none'}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in (SRC / "rlab" / "cli.py", ROOT / workload.config) if not p.is_file()]
    if missing:
        print("cannot benchmark: missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2

    def log(msg):
        print(f"[{workload.name} seed {seed}] {msg}", flush=True)

    # turn a termination request into SystemExit so running workers are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = Deadline(DEADLINE_S)
    log("environment " + json.dumps(environment(), sort_keys=True))
    OUT_ROOT.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, metrics = per_layer(workload, seed, deadline, log)
    else:
        attempted, failed, metrics = end_to_end(workload, seed, args.seconds, deadline, log)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
