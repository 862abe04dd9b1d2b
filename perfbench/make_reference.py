"""Write reference.json: the checked outputs of every workload at its default seed.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, only when a change is meant to alter
results; the diff of reference.json then shows by how much.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT_ROOT, Deadline, _read_csv, spawn
from workloads import HERE, WORKLOADS


def main() -> int:
    reference = {}
    for w in WORKLOADS.values():
        out = OUT_ROOT / f"reference-{w.name}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            _, result, error = spawn("run", w.name, w.default_seed, out, Deadline(600.0))
            if error or not all(result["assertions"].values()):
                print(f"{w.name}: {error or result['assertions']}", file=sys.stderr)
                return 1
            reference[w.name] = {
                "seed": w.default_seed,
                "files": {name: _read_csv(out / name) for name in w.checked_files},
                "values": {key: result["values"][key] for key in w.checked_values},
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
