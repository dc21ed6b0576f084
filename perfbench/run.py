"""hornlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc-agree-n3 --seed 1 --seconds 50 --trace 0

Workloads (workloads.py): mc-agree-n3 and cone-n4.  Run from the root of a
checkout; hornlab is imported from its src/.  With --trace 0 the run is
split over WORKERS fresh interpreters, run one after another (worker.py).
The first runs the loop for its share of --seconds; each later one repeats
exactly as many iterations on the same inputs, so every timed unit (a
kt_member call, or a generator call of a round) is timed WORKERS times, each
in another process and at another moment.  A unit's time is the median of
its repeats' scaled times (workloads.Clock): program time scaled to a host
on which a fixed reference loop takes workloads.REF_S, which cancels the
10-30% by which other tenants of a shared host move this process's speed
for seconds to minutes at a time.  The reference runs in the measuring
process, so scaling assumes hornlab leaves no work running between its
calls (a background thread would slow both alike and be hidden); the raw
rates in the info line would still show it.  Repeats run in separate
processes, so no in-process cache carries a result from one repeat to the
next.  It reports the end-to-end metrics:

  setup_s       median over the workers of `import hornlab` plus the
                workload's lazy builds (input generation excluded; raw time)
  items_per_s   items per second of scaled program time
  item_p50_ms,
  item_p90_ms   per-item latency quantiles, in scaled ms, over the items of
                all units, each item costing its unit's time per item
  peak_rss_mb   largest peak resident set size of a worker

The info line gives the same rates unscaled (raw_items_per_s, and one per
worker), so a run can be read in plain wall-clock terms too.

With --trace 1 it runs a fixed number of loop units in this process under
span tracing (tracer.py) and reports per-layer calls, self time and ratios,
plus the tracing overhead.  The traced loop is run twice; the two passes
must make identical call counts on every boundary.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment (nproc, Python and numpy versions,
seed) and any boundary that no longer exists.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GENERATORS, WORKLOADS, Record  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 7
WORKER_SLACK_S = 60


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _worker(wl, seed, seconds, loops):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), wl.name, str(seed),
           repr(seconds), str(loops)]
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=seconds + WORKER_SLACK_S, check=True)
    part = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(part["hornlab"]).resolve().is_relative_to(SRC):
        raise RuntimeError("worker imported hornlab from %s" % part["hornlab"])
    return part


def _end_to_end(wl, seed, seconds):
    share = seconds / WORKERS
    parts = [_worker(wl, seed, share, 0)]
    loops = parts[0]["loops"]
    parts += [_worker(wl, seed, share, loops) for _ in range(WORKERS - 1)]
    rec = Record(attempted=sum(p["attempted"] for p in parts),
                 failed=sum(p["failed"] for p in parts),
                 loops=loops,
                 wall_s=sum(p["wall_s"] for p in parts),
                 errors=[e for p in parts for e in p["errors"]][:5])
    shape = [(u[0], u[1]) for u in parts[0]["units"]]
    if any([(u[0], u[1]) for u in p["units"]] != shape for p in parts):
        # a repeat timed other units than the first process (a call raised)
        rec.failed = rec.attempted
        rec.note("the repeats of the run timed different units")
        parts = parts[:1]
    raw_s = np.median([[u[2] for u in p["units"]] for p in parts], axis=0)
    unit_s = np.median([[u[3] for u in p["units"]] for p in parts], axis=0)
    items = np.array([n for _, n in shape], dtype=int)
    kinds = np.array([kind for kind, _ in shape])
    rec.busy_s = float(raw_s.sum())
    rec.scaled_s = float(unit_s.sum())
    lat = np.repeat(1e3 * unit_s / items, items)
    item_kinds = np.repeat(kinds, items)
    if not len(lat):  # every round raised; the run is already failed
        lat = np.zeros(1)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "items_per_s": (float(items.sum()) / rec.scaled_s if rec.scaled_s else 0.0, "1/s"),
        "item_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "item_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "peak_rss_mb": (max(p["rss_kb"] for p in parts) / 1024.0, "MB"),
    }
    info = {"workers": WORKERS, "loops": loops, "units": len(shape),
            "latency_samples": len(lat), "wall_s": rec.wall_s,
            "raw_items_per_s": float(items.sum()) / rec.busy_s if rec.busy_s else 0.0,
            "setup_runs_s": [p["setup_s"] for p in parts],
            "worker_raw_items_per_s": [float(items.sum()) / p["busy_s"] if p["busy_s"] else 0.0
                                       for p in parts],
            "worker_items_per_s": [float(items.sum()) / p["scaled_s"] if p["scaled_s"] else 0.0
                                   for p in parts],
            "kinds": {kind: {"items": int((item_kinds == kind).sum()),
                             "p50_ms": float(np.percentile(lat[item_kinds == kind], 50))}
                      for kind in sorted(set(kinds))}}
    return rec, metrics, info


def _traced(hb, wl, seed):
    # no reference samples during calls (tick_s=0): they would land in spans
    tracer = Tracer()
    tracer.install()
    try:
        wl.lazy_builds(hb)
        setup_calls = tracer.calls()
        rec = wl.run(hb, seed, max_units=wl.trace_units, tick_s=0)
        metrics = tracer.metrics()
        first = {k: v - setup_calls.get(k, 0) for k, v in tracer.calls().items()}
        tracer.reset()
        again = wl.run(hb, seed, max_units=wl.trace_units, tick_s=0)
        second = tracer.calls()
    finally:
        tracer.uninstall()
    plain = wl.run(hb, seed, max_units=wl.trace_units, tick_s=0)

    for rerun in (again, plain):
        rec.attempted += rerun.attempted
        rec.failed += rerun.failed
        rec.errors.extend(rerun.errors)
    mismatch = sorted(k for k in first if first[k] != second.get(k))
    if mismatch:
        rec.failed = rec.attempted
        rec.errors.append("call counts differ between traced passes: %s" % mismatch)

    # the traced passes time the tracer's spans too; speeds come from the
    # untraced pass (ess_frac is the same in every pass at one seed)
    for name in GENERATORS:
        per = plain.per_generator.get(name, {})
        metrics["measure.%s.samples_per_s" % name] = (per.get("samples_per_s", 0.0), "1/s")
        metrics["measure.%s.ess_frac" % name] = (per.get("ess_frac", 0.0), "ratio")
    metrics["trace.overhead_ratio"] = (again.wall_s / plain.wall_s, "ratio")
    info = {"absent": tracer.absent, "units": wl.trace_units,
            "traced_wall_s": again.wall_s, "untraced_wall_s": plain.wall_s}
    return rec, metrics, info


def main():
    args = _args()
    if not (SRC / "hornlab" / "__init__.py").is_file():
        print("perfbench: no hornlab source at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if args.trace:
        sys.path.insert(0, str(SRC))
        import hornlab as hb

        if not Path(hb.__file__).resolve().is_relative_to(SRC):
            print("perfbench: imported hornlab from %s" % hb.__file__, file=sys.stderr)
            return 2
        rec, metrics, info = _traced(hb, wl, args.seed)
    else:
        rec, metrics, info = _end_to_end(wl, args.seed, args.seconds)
    info.update({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "run_s": time.perf_counter() - t0,
                 "fail_frac": rec.failed / max(1, rec.attempted),
                 "errors": rec.errors})
    for err in rec.errors:
        print("perfbench: %s" % err, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
