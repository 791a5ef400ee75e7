"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
``./src``, and scratch files go under ``./.bench_tmp`` (removed at the
end) and traced spans under ``./.bench_out``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace
0``, its per-layer metrics with ``--trace 1``.  Progress and check
messages go to stderr.  Exits nonzero, printing no result, when the
checkout holds no sources or the workload process fails outright.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, prepare

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# setup_s is the fastest of SETUP_PROBES timed imports, each in a fresh
# interpreter: one before the first timed call and one after each call,
# while the workload process waits, and the rest after the workload.
# On a shared host the speed of a process drifts with load in phases of
# seconds; the fastest probe of a set spread over the run is far steadier
# than their median.
SETUP_PROBES = 12
# A run ends within DEADLINE_S, or within --seconds plus RUN_MARGIN_S
# when that is longer; the workload process stops starting calls that
# would not fit, so a slow program still gets a result.
DEADLINE_S = 170.0
RUN_MARGIN_S = 110.0
PROBE_RESERVE_S = 5.0  # kept after the workload for one probe and the result
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import nbknn.cli; print(repr(time.perf_counter() - t))"


def import_seconds(env: dict, root: str) -> float:
    """Time to import nbknn.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def run_workload(job: dict, env: dict, workdir: str, deadline: float, on_pause=None) -> dict | None:
    """Run the workload process; its result, or None if it failed outright.

    With ``on_pause``, the workload process signals over a pipe each time
    it waits between calls; ``on_pause()`` runs, then it is resumed.
    """
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, "workload.log")
    paused_r, paused_w = os.pipe()
    resume_r, resume_w = os.pipe()
    job = dict(job, control=[resume_r, paused_w] if on_pause else None)
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    code = None
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "workload.py"), job_path, result_path],
            env=env, cwd=job["root"], stdout=log, stderr=log, start_new_session=True,
            pass_fds=(resume_r, paused_w),
        )
        os.close(resume_r)
        os.close(paused_w)
        try:
            listening = True
            while proc.poll() is None and time.monotonic() < deadline:
                if not listening:
                    time.sleep(0.05)
                elif select.select([paused_r], [], [], 0.05)[0]:
                    if not os.read(paused_r, 1):
                        listening = False  # the workload process closed its end
                        continue
                    on_pause()
                    try:
                        os.write(resume_w, b"c")
                    except BrokenPipeError:
                        listening = False
            code = proc.poll()
        finally:
            os.close(paused_r)
            os.close(resume_w)
            # The process group also holds any pool workers it left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"bench: workload process {'timed out' if code is None else f'exited with {code}'}",
              file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def line_counts(root: str) -> dict[str, float]:
    """Lines of each module of src/nbknn, plus the package total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "nbknn", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            counts["init" if module == "__init__" else module] = sum(1 for _ in fh)
    out = {f"{module}.lines": float(n) for module, n in counts.items()}
    out["package.lines"] = float(sum(counts.values()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nbknn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nbknn", "cli.py")):
        print("bench: ./src/nbknn not found; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    spans_dir = os.path.join(root, ".bench_out")
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=workdir, **{v: "1" for v in THREAD_VARS})
    workload = WORKLOADS[args.workload]
    deadline = started + max(DEADLINE_S, args.seconds + RUN_MARGIN_S)
    setup: list[float] = []

    def probe() -> None:
        if len(setup) < SETUP_PROBES:
            setup.append(import_seconds(env, root))

    try:
        metrics: dict[str, float] = {}
        if not args.trace:
            import_seconds(env, root)  # untimed: writes the bytecode cache every CLI start reuses
        job = {
            "root": root,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workdir": workdir,
            "deadline": deadline - PROBE_RESERVE_S,
            "files": prepare(args.workload, workdir, args.seed),
            "spans_path": os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
        }
        result = run_workload(job, env, workdir, deadline - PROBE_RESERVE_S,
                              None if args.trace else probe)
        if result is None:
            return 1
        if not args.trace:
            while len(setup) < SETUP_PROBES and (not setup or time.monotonic() + 2 * max(setup) < deadline):
                probe()
            metrics["setup_s"] = min(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = int(result["attempted"]), int(result["failed"])
    if args.trace:
        metrics.update(result["layers"])
        lines = line_counts(root)
        # A module that is gone reads 0 lines; one not declared is not reported.
        metrics.update({name: lines.get(name, 0.0) for name in units if name.endswith(".lines")})
        metrics["failed_frac"] = failed / attempted
    else:
        seconds = result["call_seconds"]
        metrics["trials_per_s"] = statistics.median(workload.trials_per_call / s for s in seconds)
        metrics["queries_per_s"] = statistics.median(workload.queries_per_call / s for s in seconds)
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        print(f"bench: {len(seconds)} calls, seconds per call: "
              + ", ".join(f"{s:.3f}" for s in seconds), file=sys.stderr)
        print(f"bench: {len(setup)} set-up imports, seconds: "
              + ", ".join(f"{s:.3f}" for s in setup), file=sys.stderr)
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for message in result["messages"][:20]:
        print(f"bench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
