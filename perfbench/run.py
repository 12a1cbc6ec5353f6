#!/usr/bin/env python3
"""subdiff benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a subdiff checkout.  Workloads (see BENCHMARK.json for
why each exists): cli_configs, fpke_triangulation, monte_carlo, operators.

--trace 0  one untraced worker that runs the workload's tasks for
           --seconds in a closed loop, with three set-up-only launches
           before it and three after it.  Prints the end-to-end metrics;
           setup_s is the median over all seven launches.
--trace 1  one untraced worker as above, then a traced worker that runs
           the same tasks with spans around the library's public functions.
           Prints the per-layer metrics, and checks that both runs agree
           (the CLI's CSVs byte for byte).

A run of --seconds is a fixed number of tasks, sized to take about that
long on a 2-core host, so what it attempts and which tasks fail depend on
--seed only.  Each worker is a fresh single process with BLAS threads
capped at nproc and a fixed PYTHONHASHSEED.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Every result, with its environment, is also written to
.perfbench/results/.  --size tiny shrinks every input (smoke test only).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402

WORKLOADS = ("cli_configs", "fpke_triangulation", "monte_carlo", "operators")
SETUP_LAUNCHES = 7  # with --trace 0: the measured worker and six set-ups
DEADLINE_S = 170.0  # every run must end within 180 s

# accuracy metrics that sit beside the per-layer timings: name -> unit
ACCURACY = {"route_gap": "ratio", "failed_ratio": "ratio",
            "max_abs_z": "sigma"}
END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subdiff", "__init__.py")):
        print("perfbench: src/subdiff not found; run from the root of a "
              "subdiff checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(run_workload(root, name, args)), flush=True)
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 1
    return 0


def environment(root: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    configured = os.environ.get("OPENBLAS_NUM_THREADS") or str(nproc)
    blas = max(1, min(int(configured), nproc))
    return {"nproc": nproc, "blas_threads": blas,
            "git_commit": git_commit(root)}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            # do not report the commit of a repository that holds the checkout
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def launch(root, env, workdir, name, seed, mode, size, deadline,
           seconds) -> tuple[float, dict]:
    """Run one worker to completion; returns (set-up seconds, result)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", name, "--seed", str(seed), "--workdir", workdir,
           "--mode", mode, "--seconds", repr(seconds), "--size", size]
    log = os.path.join(workdir, "worker.log")
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException as ex:
            proc.kill()
            proc.wait()
            if isinstance(ex, subprocess.TimeoutExpired):
                raise BenchError(f"{name} {mode} worker overran the deadline")
            raise
    if rc != 0:
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{name} {mode} worker exited {rc}:\n{tail}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    return result["ready_monotonic"] - t0, result


def summarize(result: dict) -> dict:
    tasks = result["tasks"]
    ok = [t for t in tasks if t["ok"]]
    latencies = [t["latency_s"] for t in (ok or tasks)]
    gaps = [g for t in tasks for g in t.get("gaps", {}).values()]
    zs = [t["max_abs_z"] for t in tasks if "max_abs_z" in t]
    return {
        "tasks_per_s": len(ok) / result["wall_s"],
        "task_s.p50": statistics.median(latencies),
        "task_s.n": len(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
        "route_gap": max(gaps, default=0.0),
        "failed_ratio": (len(tasks) - len(ok)) / len(tasks),
        "max_abs_z": max(zs, default=0.0),
        "attempted": len(tasks),
        "failed": len(tasks) - len(ok),
        "wrong": sum(t["wrong"] for t in tasks),
    }


def outcome(task: dict) -> tuple:
    """What must not change between the untraced and traced runs."""
    return (task["ok"], task["failure"], task.get("hashes"))


def run_workload(root: str, name: str, args) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env_info = environment(root)
    bench_dir = os.path.join(root, ".perfbench")
    os.makedirs(bench_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=bench_dir)
    # A fixed hash seed: with a random one, the order of allocations, and
    # so the peak RSS of one and the same task, changed from launch to
    # launch by up to 11 %.
    env = dict(os.environ, TMPDIR=work, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(env_info["blas_threads"]),
               OMP_NUM_THREADS=str(env_info["blas_threads"]),
               MKL_NUM_THREADS=str(env_info["blas_threads"]))
    try:
        def setup_only(launches):
            # set-up time swings with the host's load over seconds, so the
            # launches sit on both sides of the measured worker
            return [launch(root, env, os.path.join(work, f"setup{i}"), name,
                           args.seed, "setup", args.size, deadline,
                           args.seconds)[0] for i in launches]

        half = (SETUP_LAUNCHES - 1) // 2
        setups = setup_only(range(half)) if args.trace == 0 else []
        setup_s, untraced = launch(root, env, os.path.join(work, "untraced"),
                                   name, args.seed, "untraced", args.size,
                                   deadline, args.seconds)
        setups.append(setup_s)
        if args.trace == 0:
            setups += setup_only(range(half, 2 * half))
        summary = summarize(untraced)
        summary["setup_s"] = statistics.median(setups)
        record = {"workload": name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "size": args.size,
                  "environment": {**env_info, **untraced["versions"]},
                  "untraced": summary, "setup_samples_s": setups,
                  "untraced_tasks": untraced["tasks"]}
        correct = summary["wrong"] == 0
        attempted, failed = summary["attempted"], summary["failed"]
        if args.trace == 0:
            metrics = {k: summary[k] for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
        else:
            _, traced = launch(root, env, os.path.join(work, "traced"), name,
                               args.seed, "traced", args.size, deadline,
                               args.seconds)
            with open(os.path.join(work, "traced", "spans.json")) as fh:
                spans = json.load(fh)
            traced_summary = summarize(traced)
            mismatched = [a["j"] for a, b in zip(untraced["tasks"],
                                                 traced["tasks"])
                          if outcome(a) != outcome(b)]
            correct = correct and traced_summary["wrong"] == 0 and not mismatched
            attempted = traced_summary["attempted"]
            failed = traced_summary["failed"]
            metrics = tracing.layer_metrics(spans, traced["wall_s"],
                                            untraced["wall_s"])
            metrics.update({k: traced_summary[k] for k in ACCURACY})
            units = {s["name"]: s["unit"] for s in tracing.metric_specs()}
            units.update(ACCURACY)
            record.update(traced=traced_summary,
                          traced_tasks=traced["tasks"],
                          mismatched_tasks=mismatched)
            trace_path = os.path.join(
                bench_dir, f"spans-{name}-seed{args.seed}.json")
            shutil.copyfile(os.path.join(work, "traced", "spans.json"),
                            trace_path)
        record.update(correct=correct, metrics=metrics)
        report(record, units)
        results = os.path.join(bench_dir, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(
                results, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def report(record: dict, units: dict) -> None:
    """Human-readable lines; the JSON line comes last, from main()."""
    s = record["untraced"]
    env = record["environment"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s        {s['setup_s']:.4f} s "
          f"(median of {len(record['setup_samples_s'])} launches)")
    print(f"tasks_per_s    {s['tasks_per_s']:.4f} 1/s")
    print(f"task_s.p50     {s['task_s.p50']:.4f} s (n={s['task_s.n']})")
    print(f"failed_ratio   {s['failed_ratio']:.4f} ratio "
          f"({s['failed']}/{s['attempted']})")
    print(f"peak_rss_mb    {s['peak_rss_mb']:.1f} MB")
    print(f"route_gap      {s['route_gap']:.4g} ratio")
    if s["max_abs_z"]:
        print(f"max_abs_z      {s['max_abs_z']:.3f} sigma")
    by_command = {}
    for t in record["untraced_tasks"]:
        if "command" in t:
            by_command.setdefault(t["command"], []).append(t["latency_s"])
    for command, latencies in sorted(by_command.items()):
        # timed from outside: report.json's own runtime_s times nothing
        print(f"  {command + '_s.p50':<18} {statistics.median(latencies):.4f} s "
              f"(n={len(latencies)})")
    failures = {}
    for t in record.get("traced_tasks", record["untraced_tasks"]):
        if not t["ok"]:
            key = t["failure"].split(":")[0]
            failures[key] = failures.get(key, 0) + 1
    for key, n in sorted(failures.items()):
        print(f"failures       {n} x {key}")
    if record["trace"] == 1:
        print(f"mismatched     {len(record['mismatched_tasks'])} tasks "
              "between the untraced and traced runs")
        for k, v in record["metrics"].items():
            print(f"  {k:<52} {v:.6g} {units[k]}")
    print(f"correct        {record['correct']}")


if __name__ == "__main__":
    sys.exit(main())
