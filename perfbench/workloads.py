"""The benchmark's workloads: which scenario config each one runs, with what
overrides, at which default seed, and which outputs are checked.

Paths are relative to the root of the checkout.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                      # INI path relative to the checkout root
    overrides: tuple = ()            # (section, key, value) applied after parsing
    default_seed: int = 0            # the seed the reference values belong to
    checked_files: tuple = ()        # CSV artifacts compared with the reference
    checked_values: tuple = ()       # manifest ``values`` keys compared likewise


WORKLOADS = {
    w.name: w
    for w in (
        Workload("born-16", "configs/born-series.ini",
                 overrides=(("scenario", "delta", "495"), ("scenario", "dt", "0.1")),
                 default_seed=11,
                 checked_files=("series.csv",), checked_values=("fitted_rate",)),
        Workload("wave-32", "configs/wave-operator.ini",
                 overrides=(("scenario", "dt", "0.2"),), default_seed=0,
                 checked_files=("trace.csv",), checked_values=("kappa",)),
        Workload("harness-64", "perfbench/harness-64.ini", default_seed=0,
                 checked_files=("report.csv",)),
        Workload("snapshots-16", "configs/simulate-nonlinear.ini",
                 overrides=(("evolve", "t_end", "3"), ("evolve", "snapshot_stride", "2")),
                 default_seed=5,
                 checked_files=("norms.csv",)),
    )
}


def load_config(cli, workload: Workload, seed: int):
    """Parsed, validated ``ExperimentConfig`` of ``workload`` at ``seed``."""
    cfg = cli.ExperimentConfig.from_file(str(ROOT / workload.config))
    for section, key, value in workload.overrides:
        cfg.override(section, key, value)
    cfg.override("run", "seed", seed)
    return cfg
