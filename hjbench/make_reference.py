"""Record the reference outputs the benchmark's ``ref_`` checks compare with.

    python3 hjbench/make_reference.py

Runs one pass of every workload for every sub-seed in
``range(REFERENCE_SEEDS)`` and writes the exact parts of its outputs to
``reference.json``. Rerun it only when the program's outputs are meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import json

from run import REFERENCE, fresh_hjoints
from workloads import REFERENCE_SEEDS, WORKLOADS


def record(wl) -> dict:
    entries = {}
    for sub in range(REFERENCE_SEEDS):
        hj = fresh_hjoints()
        inp = wl.build(hj, sub)
        out = wl.run(hj, inp)
        exact = wl.exact(hj, inp, out)
        bad = [name for name, ok in wl.check(hj, inp, out, exact) if not ok]
        if bad:
            raise SystemExit(f"{wl.name} sub-seed {sub}: checks failed: {bad}")
        entries[str(sub)] = exact
        print(wl.name, sub, exact, flush=True)
    return entries


def main() -> None:
    reference = {name: record(wl) for name, wl in WORKLOADS.items()}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
