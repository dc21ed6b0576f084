"""One measuring process of an end-to-end run.

Times its own set-up in a fresh interpreter (`import hornlab` plus the
workload's lazy builds), then runs the workload's closed loop and prints one
JSON line.  With LOOPS 0 the loop runs for SECONDS; otherwise it runs
exactly LOOPS iterations (rounds or items), so that a repeat times the same
units as the first process of its run.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS LOOPS
(with the checkout's src/ on PYTHONPATH)
"""

import sys
import time

t0 = time.perf_counter()
import hornlab  # noqa: E402  (the import is part of the timed set-up)

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

name, seed, seconds, loops = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
wl = WORKLOADS[name]
wl.lazy_builds(hornlab)
setup_s = time.perf_counter() - t0
rec = wl.run(hornlab, seed, seconds=None if loops else seconds, max_units=loops or None)
print(json.dumps({
    "setup_s": setup_s,
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "hornlab": hornlab.__file__,
    **dataclasses.asdict(rec),
}))
