"""Tests of the calibration kernel the end-to-end timings are divided by.
Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import pathlib
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from calibration import kernel_s  # noqa: E402
from run import CALIB_CPU_SHARE_MAX  # noqa: E402


def test_kernel_alone_uses_one_cpu_per_thread():
    wall, share = kernel_s()
    assert wall > 0
    assert share <= CALIB_CPU_SHARE_MAX


def test_work_left_running_beside_the_kernel_is_caught():
    stop = threading.Event()
    a = np.ones((32, 32, 32), complex)

    def busy():
        while not stop.is_set():
            np.fft.fftn(a)

    kernel_s()
    t = threading.Thread(target=busy)
    t.start()
    try:
        _, share = kernel_s()
    finally:
        stop.set()
        t.join()
    assert share > CALIB_CPU_SHARE_MAX
