"""Byte-identity sweep: run 16 scenario configs and print one digest per run.

Usage, from the root of a checkout::

    PYTHONPATH=src python tools/identity_sweep.py OUT > sweep.txt

Each config runs through ``python -m rlab.cli run`` with whichever ``rlab``
is on ``PYTHONPATH``, writing its run directory under ``OUT``.  For each run
the script prints ``name sha256 passed``: the digest covers the manifest
without its ``started``/``finished`` stamps, so it covers the config hash,
every manifest value and assertion, and the digest of every artifact.  Run
it once against the parent's ``src`` and once against a change's; an empty
``diff`` of the two outputs shows that the change left every output byte as
it was.

A change that moves outputs by roundoff only (a reordered product, a
factored kernel) cannot pass that ``diff``.  Compare the two sweeps run by
run instead::

    python -m rlab.cli compare OLD/NAME/manifest.json NEW/NAME/manifest.json

for each NAME.  ``compare`` lists every manifest value that moved with its
b/a ratio, every assertion that flipped, and each artifact whose digest
changed.  Record the largest |b/a - 1| per config.  No ``assertion:`` row
may appear.  A ratio far above roundoff (say 1e-9) is acceptable only for a
value that is itself a roundoff-level quantity, such as a difference of
nearly equal numbers.
"""

from __future__ import annotations

import configparser
import hashlib
import json
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
    return {
        **shipped,
        "simulate-linear": _with(shipped["simulate-nonlinear"],
                                 **{"run.scenario": "simulate-linear"}),
        "born-16": _with(shipped["born-series"], **{"scenario.dt": 0.1, "scenario.delta": 495}),
        "harness-64": _load(REPO / "perfbench" / "harness-64.ini"),
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


def main(argv) -> int:
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
