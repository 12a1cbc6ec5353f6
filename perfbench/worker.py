"""One benchmark worker process; run.py launches it, never a user.

Modes:
  setup     import subdiff, generate the inputs, report when ready, exit
  untraced  set up, then run the workload's tasks for --seconds in a
            closed loop
  traced    set up, install the span wrappers, run the same tasks, restore
            the wrappers and write the spans

Writes result.json (and spans.json when traced) into --workdir.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"),
                    required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import scipy

    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.root, args.workdir, args.seed, args.size, args.seconds)
    workload.setup()
    ready = time.monotonic()
    result = {"ready_monotonic": ready,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            result.update(run_tasks(workload, tracer))
        finally:
            if tracer is not None:
                tracer.restore()
                tracer.dump(os.path.join(args.workdir, "spans.json"))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def release_freed_memory() -> None:
    """Collect garbage and hand the freed heap back to the OS, so that the
    next task starts from the same heap, whatever ran before it.  Without
    this, glibc's heap history made the peak RSS of a run depend on the
    order of its tasks, not only on the largest one."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)


def run_tasks(workload, tracer) -> dict:
    """Closed loop: task j + 1 starts when task j has returned.  The wall
    time excludes the memory release between tasks."""
    from subdiff import NumericsError
    from workloads import CheckFailed

    tasks = []
    start = time.perf_counter()
    housekeeping = 0.0
    for j in range(workload.n_tasks):
        if j > 0:
            t0 = time.perf_counter()
            release_freed_memory()
            housekeeping += time.perf_counter() - t0
        if tracer is not None:
            tracer.task = j
        rec = {"j": j, "ok": True, "failure": None, "wrong": False}
        t0 = time.perf_counter()
        try:
            rec.update(workload.run(j))
        except NumericsError as ex:
            rec.update(ok=False, failure=f"{type(ex).__name__}: {ex}")
        except CheckFailed as ex:
            rec.update(ok=False, wrong=True, failure=f"check: {ex}")
        except Exception as ex:
            # a defect of the program or of the benchmark: counted as a
            # failed, wrong task, with its traceback in the worker log
            traceback.print_exc()
            rec.update(ok=False, wrong=True,
                       failure=f"error: {type(ex).__name__}: {ex}")
        rec["latency_s"] = time.perf_counter() - t0
        tasks.append(rec)
    return {"wall_s": time.perf_counter() - start - housekeeping,
            "tasks": tasks}


if __name__ == "__main__":
    sys.exit(main())
