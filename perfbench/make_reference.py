"""Rewrite reference.json: each workload's outputs at the default seed, as the
parsed tuples the benchmark compares (one pass at one worker).  Run it only
when a change is meant to alter the outputs, and say so in the change.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

import run

if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    import workloads as wl

    ref = {}
    for name in run.WORKLOADS:
        bench = (run.FareyScan(wl, run.DEFAULT_SEED) if name == "farey-scan"
                 else run.Library(wl, name, run.DEFAULT_SEED))
        ref[name] = bench.view(bench.w1(run.NULL))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
