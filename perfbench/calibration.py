"""A fixed kernel that measures how fast the machine is at the moment.

The host's speed drifts by up to 1.8x over tens of seconds, and each vCPU
drifts on its own (other guests share the host's cores).  That moves every
timing alike, so the benchmark divides a scenario's time by the mean time of
this kernel run just before and just after it, in the same process.  The
kernel mixes what rlab spends its time on: Python bytecode, small FFTs (call
overhead) and a 64^3 FFT and complex exp (memory traffic).  A scenario on a
thread pool is divided by the 64^3 part run on as many threads as it uses.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _large_fft_exp(passes: int) -> None:
    large = np.cos(np.arange(64 ** 3.0)).reshape(64, 64, 64) + 0j
    for _ in range(passes):
        np.exp(1j * np.fft.fftn(large).real)


def _single_thread_kernel() -> None:
    acc = 0
    for i in range(600_000):
        acc += i * i
    small = np.cos(np.arange(16 ** 3.0)).reshape(16, 16, 16) + 0j
    for _ in range(200):
        np.fft.ifftn(np.fft.fftn(small))
    _large_fft_exp(2)


def _pool_thread_kernel(_=None) -> None:
    # what a pool thread runs is numpy code that releases the GIL; a Python
    # loop here would only measure how the threads take turns on the GIL
    _large_fft_exp(8)


def kernel_s(threads: int = 1) -> tuple[float, float]:
    """Wall seconds of one pass of the kernel on every thread, and the share
    of those threads' time the process spent on a CPU (about 1; well above 1
    when something else in the process keeps running).  Arrays are made and
    freed inside, so the kernel holds no memory while the scenario runs and
    leaves its peak RSS alone."""
    c0, t0 = time.process_time(), time.perf_counter()
    if threads <= 1:
        _single_thread_kernel()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_pool_thread_kernel, range(threads)))
    wall = time.perf_counter() - t0
    return wall, (time.process_time() - c0) / (wall * max(1, threads))
