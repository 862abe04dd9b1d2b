"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED OUT_DIR

MODE is one of
  setup  import rlab, parse and validate the workload config, then exit;
  run    the same, then ``rlab.cli.run(config, OUT_DIR)`` untraced, between
         two passes of the calibration kernel (``calibration.py``);
  trace  as ``run``, with every layer wrapped by ``tracer.Tracer``;
  probe  time single calls of four layer functions on the workload's grid.

The worker prints ``ready`` as soon as the config is validated (the parent
times set-up up to that line) and its result as one JSON line at the end.
"""

from __future__ import annotations

import sys
import time


def _run(cli, cfg, workload, out_dir: str, tracer) -> dict:
    import contextlib
    import resource

    from calibration import kernel_s

    kernel_s(cfg.threads)  # fills numpy's FFT plan cache
    calib_before = kernel_s(cfg.threads)
    with tracer.instrument() if tracer else contextlib.nullcontext():
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        manifest = cli.run(cfg, out_dir)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
    calib_after = kernel_s(cfg.threads)
    return {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "calib_s": (calib_before[0] + calib_after[0]) / 2,
        "calib_cpu_share": max(calib_before[1], calib_after[1]),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "assertions": manifest.assertions,
        "values": {k: manifest.values.get(k) for k in workload.checked_values},
        "trace": tracer.summary() if tracer is not None else None,
    }


# Potentials of the shipped configs, used by the probes on every grid.
PROBE_POTENTIAL = {
    "width": "4.0", "delta": "1000.0", "amplitude_v": "0.15",
    "amplitude_a1": "0.12", "amplitude_a2": "-0.10", "amplitude_a3": "0.11",
    "center_offset": "1.0",
}
PROBE_REPEATS = 3


def _median_time(fn, per: int = 1) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / per)
    return sorted(times)[len(times) // 2]


def _probe(cli, cfg) -> dict:
    """Milliseconds per call of four layer functions on the workload's grid."""
    from rlab import duhamel, flows, norms, potentials

    grid = cli.build_grid(cfg)
    pcfg = cli.ExperimentConfig({
        "run": {"scenario": "certify", "seed": str(cfg.seed)},
        "grid": dict(cfg.sections["grid"]),
        "potential": PROBE_POTENTIAL,
    })
    ps = cli.build_potentials(pcfg, grid)
    u1 = cli.build_datum(pcfg, grid, cfg.seed)
    dt, steps = 0.01, 2
    evolve = flows.EvolveConfig(t_end=1.0 + steps * dt, dt=dt, snapshot_stride=steps)
    return {
        "norms.x_norm.ms_per_call": 1e3 * _median_time(lambda: norms.x_norm(u1)),
        "potentials.certify.ms_per_call": 1e3 * _median_time(
            lambda: potentials.certify(ps, ps.delta_target)),
        "flows.step_ms": 1e3 * _median_time(
            lambda: flows.evolve_linear(u1, ps, evolve, skip_certification=True), steps),
        "duhamel.ladder_step_ms": 1e3 * _median_time(
            lambda: duhamel._born_ladder(u1, ps, 6, 1.0 + steps * dt, dt), steps),
    }


def main(argv) -> int:
    mode, name, seed, out_dir = argv[1], argv[2], int(argv[3]), argv[4]
    from workloads import SRC, WORKLOADS, load_config

    sys.path.insert(0, str(SRC))
    tracer = None
    if mode == "trace":
        import numpy  # noqa: F401  (keeps numpy's import out of the layer spans)

        from tracer import Tracer

        tracer = Tracer()
        with tracer.import_spans():
            from rlab import cli
    else:
        from rlab import cli
    cfg = load_config(cli, WORKLOADS[name], seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    import json

    if mode == "probe":
        result = _probe(cli, cfg)
    else:
        result = _run(cli, cfg, WORKLOADS[name], out_dir, tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
