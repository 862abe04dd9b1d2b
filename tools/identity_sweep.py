"""Byte-identity sweep: run 24 scenario configs and print one digest per run.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/identity_sweep.py OUT > sweep.txt
    PYTHONPATH=src python tools/identity_sweep.py --compare OLD NEW

Each config runs through ``python -m rlab.cli run`` with whichever ``rlab``
is on ``PYTHONPATH``, writing its run directory under ``OUT``.  For each run
the script prints ``name sha256 passed``: the digest covers the manifest
without its ``started``/``finished`` stamps, so it covers the config hash,
every manifest value and assertion, and the digest of every artifact.  Run
it once against the parent's ``src`` and once against a change's; an empty
``diff`` of the two outputs shows that the change left every output byte as
it was.

A change that moves outputs by roundoff only (a reordered product, a
factored kernel) cannot pass that ``diff``.  ``--compare OLD NEW`` reads two
such sweep directories and runs ``rlab.cli.compare`` on each run name
present in both.  It prints ``name rows max|b/a-1|``: the number of rows
``compare`` gives (every manifest value that moved, every assertion that
flipped, every CSV column, JSON leaf or snapshot that moved, every other
artifact whose digest changed) and the largest deviation over the rows
that carry one ("-" if none does): |b/a - 1| of a value, and the deviation
an artifact row holds (the largest |b/a - 1| of a CSV column or of a
numeric leaf of a JSON artifact such as ``report.json``, or the snapshot's
relative L2 distance).  Below each name it lists the keys of the rows
without one: assertions, other artifacts, text values and values leaving
zero.  No ``assertion:`` row may appear, and each run name must be on both
sides: the script lists each breach on stderr after the table and exits 1
if there is one.  A ratio far above roundoff (say 1e-9) is acceptable only
for a value that is itself a roundoff-level quantity, such as a difference
of nearly equal numbers.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _harness(scenario, seed, n, length, **scenario_keys):
    sections = {"run": {"scenario": f"harness:{scenario}", "seed": seed},
                "grid": {"n": n, "L": length}}
    if scenario_keys:
        sections["scenario"] = scenario_keys
    return sections


def _load(path) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path)
    return {s: dict(parser[s]) for s in parser.sections()}


def _with(base: dict, **overrides) -> dict:
    # overrides are "section.key" -> value
    out = {s: dict(kv) for s, kv in base.items()}
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        out.setdefault(section, {})[key] = value
    return out


def configs() -> dict[str, dict]:
    shipped = {p.stem: _load(p) for p in sorted(CONFIGS.glob("*.ini"))}
    doi = _harness("doi", 5, 16, 48.0, T=2.0, dt=0.01)
    doi["potential"] = shipped["born-series"]["potential"]
    born_16 = _with(shipped["born-series"], **{"scenario.dt": 0.1, "scenario.delta": 495})
    return {
        **shipped,
        "simulate-linear": _with(shipped["simulate-nonlinear"],
                                 **{"run.scenario": "simulate-linear"}),
        # zero potential: the linear flow is the exact free multiplier per record
        "simulate-free": _with(shipped["simulate-nonlinear"],
                               **{"run.scenario": "simulate-linear", "potential.amplitude_v": 0,
                                  **{f"potential.amplitude_a{j}": 0 for j in (1, 2, 3)}}),
        # the quadratic flow without the two-thirds rule
        "simulate-undealiased": _with(shipped["simulate-nonlinear"], **{"evolve.dealias": "off"}),
        # eps1 = 0.004 sits below the profile norms: the bootstrap monitor exits
        "simulate-exit": _with(shipped["simulate-nonlinear"], **{"bootstrap.eps0": 0.001}),
        # 64^3: the only run that takes AxisOperator's one-axis FFT branch (n > 32)
        "simulate-64": _with(shipped["simulate-nonlinear"],
                             **{"grid.n": 64, "evolve.t_end": 1.2, "evolve.dt": 0.05,
                                "evolve.snapshot_stride": 4}),
        # zero potential: the wave operator's constant profile, a trace of exact zeros
        "wave-free": _with(shipped["wave-operator"],
                           **{"grid.n": 16, "potential.amplitude_v": 0,
                              **{f"potential.amplitude_a{j}": 0 for j in (1, 2, 3)}}),
        "born-16": born_16,
        # electric only: the delta rescale meets zero certificate entries
        "born-electric": _with(born_16, **{f"potential.amplitude_a{j}": 0 for j in (1, 2, 3)}),
        # magnetic only: the Born ladder applies L without the V multiplication
        "born-magnetic": _with(born_16, **{"potential.amplitude_v": 0}),
        "harness-64": _load(REPO / "perfbench" / "harness-64.ini"),
        # dx = 1.5: a wrong power of dx in a smoothing norm shows here, not at dx = 1
        "smo1-dx": _harness("smo1", 1, 32, 48.0, band=1, samples=2),
        "smo2": _harness("smo2", 1, 32, 32.0, band=2, samples=2),
        "smo3": _harness("smo3", 1, 32, 32.0, band=2, samples=2),
        "ik-smostri": _harness("ik-smostri", 2, 16, 16.0, band=1, samples=4),
        "bilin": _harness("bilin", 3, 16, 16.0, samples=4),
        "direction": _harness("direction", 0, 32, 32.0),
        "summation": _harness("summation", 4, 32, 32.0, band=0, samples=3, c=0.25),
        "doi": doi,
    }


def _write_ini(path: pathlib.Path, sections: dict) -> None:
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")


def digest(manifest_path: pathlib.Path) -> tuple[str, bool]:
    doc = json.loads(manifest_path.read_text())
    doc.pop("started")
    doc.pop("finished")
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), all(doc["assertions"].values())


def compare_sweeps(old: pathlib.Path, new: pathlib.Path) -> list[str]:
    """Print the table; return its faults: each assertion row and each run
    name only one side has."""
    from rlab.cli import compare

    names_old, names_new = ({p.parent.name for p in d.glob("*/manifest.json")} for d in (old, new))
    faults = [f"{name}: only in {old}" for name in sorted(names_old - names_new)]
    faults += [f"{name}: only in {new}" for name in sorted(names_new - names_old)]
    for name in sorted(names_old & names_new):
        rows = compare(old / name / "manifest.json", new / name / "manifest.json")
        devs = [row[3] if row[0].startswith("artifact:") else abs(row[3] - 1.0)
                for row in rows if not math.isnan(row[3])]
        print(name, len(rows), f"{max(devs):.3g}" if devs else "-", flush=True)
        for row in rows:
            if math.isnan(row[3]):
                print(f"  {row[0]}")
        faults += [f"{name}: {row[0]}" for row in rows if row[0].startswith("assertion:")]
    return faults


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--compare":
        faults = compare_sweeps(pathlib.Path(argv[2]), pathlib.Path(argv[3]))
        for fault in faults:
            print("FAULT", fault, file=sys.stderr)
        return 1 if faults else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, sections in configs().items():
        ini = out / f"{name}.ini"
        _write_ini(ini, sections)
        run_dir = out / name
        proc = subprocess.run(
            [sys.executable, "-m", "rlab.cli", "run", "--config", str(ini), "--out", str(run_dir)],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):  # 1 only means an assertion failed
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        sha, passed = digest(run_dir / "manifest.json")
        print(name, sha, passed, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
