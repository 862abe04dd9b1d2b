"""Tests of the benchmark's own machinery: span arithmetic, wrapper reach and
the FFT counter.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import pathlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tracer import Tracer, covered_length  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = tr.enter("flows.outer", "flows")
    clock.now = 1.0
    inner = tr.enter("norms.inner", "norms")
    clock.now = 3.0
    leaf = tr.enter("fft.fftn", "fft")
    clock.now = 3.5
    tr.exit(leaf)
    tr.exit(inner)
    clock.now = 4.0
    second = tr.enter("norms.inner", "norms")
    clock.now = 4.5
    tr.exit(second)
    clock.now = 6.0
    tr.exit(outer)
    # outer [0, 6] has children [1, 3.5] and [4, 4.5]; [1, 3.5] has [3, 3.5]
    assert tr.layer_self_s["flows"] == pytest.approx(6.0 - 2.5 - 0.5)
    assert tr.layer_self_s["norms"] == pytest.approx((2.5 - 0.5) + 0.5)
    assert tr.layer_self_s["fft"] == pytest.approx(0.5)
    assert tr.inclusive_s["norms.inner"] == pytest.approx(3.0)
    assert tr.calls["norms.inner"] == 2


def test_self_time_of_spans_on_two_threads():
    tr = Tracer()
    barrier = threading.Barrier(2)

    def child():
        with tr.span("norms.child", "norms"):
            barrier.wait(timeout=10)
            time.sleep(0.2)

    with tr.instrument(package="no_such_package"):
        with tr.span("estimates.parent", "estimates"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(child) for _ in range(2)]
                for f in futures:
                    f.result(timeout=10)
    parent_s = tr.inclusive_s["estimates.parent"]
    # the two children overlap: they cover the parent once, not twice
    assert 0.0 <= tr.layer_self_s["estimates"] < 0.5 * parent_s
    assert tr.layer_self_s["norms"] == pytest.approx(tr.inclusive_s["norms.child"])
    assert tr.layer_self_s["norms"] > parent_s
    assert ThreadPoolExecutor.submit.__name__ == "submit"  # restored on exit


def _direct_calls(codes, fn):
    """Calls of the given code objects counted by the interpreter's profiler."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def _small_config(cli, path, **overrides):
    cfg = cli.ExperimentConfig.from_file(str(HERE.parent / "configs" / path))
    for key, value in overrides.items():
        section, name = key.split("__")
        cfg.override(section, name, value)
    return cfg


def test_wrappers_reach_every_binding(tmp_path):
    from rlab import cli, flows, norms

    configs = [
        _small_config(cli, "born-series.ini", scenario__t="1.05", scenario__orders="2"),
        _small_config(cli, "simulate-nonlinear.ini", evolve__t_end="1.1",
                      evolve__snapshot_stride="2"),
        _small_config(cli, "wave-operator.ini", grid__n="16", scenario__T="2.0",
                      scenario__dt="0.25"),
    ]
    targets = {
        "norms.x_norm": norms.x_norm.__code__,
        "flows._strang_loop": flows._strang_loop.__code__,
        "flows._PotentialOperator": flows._PotentialOperator.__init__.__code__,
    }
    tr = Tracer()

    def run_all():
        for i, cfg in enumerate(configs):
            cli.run(cfg, tmp_path / str(i))

    with tr.instrument():
        direct = _direct_calls(set(targets.values()), run_all)
    for name, code in targets.items():
        assert direct[code] > 0
        assert tr.calls[name] == direct[code], name
    assert not hasattr(cli.x_norm, "__traced__")  # unwrapped on exit


def _fft_count(tr, fn, owner):
    before = tr.fft_by_name[owner]
    fn()
    return tr.fft_by_name[owner] - before


def test_fft_counts_per_linear_strang_step_and_born_step():
    from rlab import cli, duhamel, flows

    cfg = _small_config(cli, "born-series.ini")
    grid = cli.build_grid(cfg)
    assert grid.shape == (16, 16, 16)
    ps = cli.build_potentials(cfg, grid)
    u0 = cli.build_datum(cfg, grid, cfg.seed)
    tr = Tracer()
    with tr.instrument():
        def strang(n):
            op = flows._PotentialOperator(grid, ps.v.data, [a.data for a in ps.a])
            flows._strang_loop(grid, u0.data.copy(), 0.01, n,
                               flows._linear_substep(op), set())

        def ladder(n):
            duhamel._born_ladder(u0, ps, 6, 1.0 + 0.01 * n, 0.01)

        one = _fft_count(tr, lambda: strang(1), "flows._strang_loop")
        two = _fft_count(tr, lambda: strang(2), "flows._strang_loop")
        assert two - one == 18
        one = _fft_count(tr, lambda: ladder(1), "duhamel._born_ladder")
        two = _fft_count(tr, lambda: ladder(2), "duhamel._born_ladder")
        assert two - one == 74
    assert tr.steps["flows._strang_loop"] == 3
    assert tr.steps["duhamel._born_ladder"] == 3
    assert not hasattr(np.fft.fftn, "__traced__")
