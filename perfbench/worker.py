"""A library workload's worker process.

    python3 perfbench/worker.py seq-probe|siegel-disk [SEED]

Imports siegelkit, builds the families and warms their lazy caches.  Without
SEED it then exits: the benchmark times this whole process as ``setup_s``.
With SEED it prints ``ready`` and serves the seed's operations: each line read
from standard input is an operation's index, and each reply is one JSON line
``[status, output]`` as ``workloads.run_op`` returns it.  It exits when its
standard input closes, so it never outlives the benchmark that started it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs the path above)


def serve(name, seed):
    ops = workloads.LIBRARY_OPS[name][0](seed)
    out, sys.stdout = sys.stdout, sys.stderr  # only replies go to the benchmark
    print("ready", file=out, flush=True)
    for line in sys.stdin:
        reply = workloads.run_op((name, ops[int(line)]))
        print(json.dumps(reply, default=lambda x: x.item()), file=out, flush=True)


if __name__ == "__main__":
    workloads.warm(sys.argv[1])
    if len(sys.argv) > 2:
        serve(sys.argv[1], int(sys.argv[2]))
