"""Workload process: runs one workload through ``nbknn.cli.main``.

Started by run.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH, so its peak RSS is the workload's own:

    python3 bench/workload.py JOB.json RESULT.json

Timing mode: one warm-up call at a small size, then calls of the full
workload until they have taken the run's seconds (at least MIN_CALLS),
then the peak RSS, then the correctness checks.  Nothing the checks
need is imported before the RSS is read.  Before the first timed call
and after each one, the process pauses while run.py times a set-up
import.  No call starts that could not end, with the checks, by the
run's deadline, so a slow program yields fewer calls, not no result.

Trace mode: rounds of an untraced and a traced call, both at --jobs 1,
because spans inside pool workers would be lost; a pooled workload adds
a call at its own --jobs per round in which only ``map_trials`` is
timed.

In both modes every call of a run must write the same bytes as the
reference call, whose output is the one checked: for simulate and
benchmark a call at --jobs 1 that captures each method's predictions
(so for the pooled workload the comparison is also the jobs-invariance
check), for fit-predict the first timed call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import Recorder, unpatch
from workloads import CSV_METHODS, SIM_METHODS, WORKLOADS, command

MIN_CALLS = 3
CHECK_RESERVE_S = 20.0  # left before the deadline for the checks and the pauses
MAP_TRIALS = [("methods", "map_trials")]
METHODS = tuple(dict.fromkeys(SIM_METHODS + CSV_METHODS))


class Runner:
    def __init__(self, job: dict, cli) -> None:
        self.cli = cli
        self.workload = WORKLOADS[job["workload"]]
        self.seed = int(job["seed"])
        self.seconds = float(job["seconds"])
        self.files = job["files"]
        self.spans_path = job["spans_path"]
        self.deadline = float(job["deadline"])  # time.monotonic() by which the run ends
        self.control = job.get("control")  # [resume fd, paused fd], or None
        self.out = os.path.join(job["workdir"], "output")
        self.outputs: dict[str, bytes] = {}  # digest -> bytes written
        self.messages: list[str] = []

    def call(self, jobs: int, warm: bool = False) -> tuple[float, str | None]:
        """One CLI call: (wall seconds, digest of its output or None on failure)."""
        argv = command(self.workload.name, self.files, self.seed, self.out, jobs, warm)
        if os.path.exists(self.out):
            os.unlink(self.out)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "an exception"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.messages.append(f"{argv[0]} call ended with {code}")
            return elapsed, None
        with open(self.out, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        self.outputs.setdefault(digest, data)
        return elapsed, digest

    def pause(self) -> None:
        """Wait while run.py times a set-up import between calls."""
        if self.control is not None:
            os.write(self.control[1], b"p")
            os.read(self.control[0], 1)

    def room_for(self, seconds: float) -> bool:
        """Whether ``seconds`` more of calls still end, with the checks, by the deadline."""
        if time.monotonic() + seconds + CHECK_RESERVE_S < self.deadline:
            return True
        self.messages.append(f"stopped starting calls {self.deadline - time.monotonic():.0f} s "
                             "before the run's deadline")
        return False

    def captured_call(self, capture) -> tuple[float, str | None]:
        undo = capture.install()
        try:
            return self.call(1)
        finally:
            unpatch(undo)

    def failed_ops(self, calls, reference: str | None, capture) -> int:
        """Failed operations over ``calls``, judged against the reference output."""
        import checks

        w = self.workload
        ref_failed = w.ops_per_call
        pin = checks.pinned(w.name, self.seed)
        if reference is None:
            self.messages.append("the reference call failed")
        elif pin is not None and reference != pin:
            self.messages.append(f"output digest {reference} differs from the pinned {pin}")
        elif w.name == "fit_predict_wide":
            ref_failed = checks.query_failures(self.outputs[reference], self.seed, self.messages)
        else:
            failed = checks.trial_failures(capture, self.outputs[reference], w, self.messages)
            if failed is not None:
                ref_failed = len(failed)
        if any(d != reference for _, d in calls):
            self.messages.append("calls of one run did not all write the reference bytes")
        return sum(ref_failed if d == reference else w.ops_per_call for _, d in calls)

    def timing(self) -> dict:
        w = self.workload
        self.call(w.jobs, warm=True)
        # A simulate or benchmark run ends with one more call, the captured reference.
        extra = 1 if w.name == "fit_predict_wide" else 2
        calls = []
        self.pause()
        while len(calls) < MIN_CALLS or sum(s for s, _ in calls) < self.seconds:
            if calls and not self.room_for(extra * max(s for s, _ in calls)):
                break
            calls.append(self.call(w.jobs))
            self.pause()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        import checks

        if w.name == "fit_predict_wide":
            reference, capture = calls[0][1], None
        else:
            capture = checks.Capture()
            reference = self.captured_call(capture)[1]
        return {
            "call_seconds": [s for s, _ in calls],
            # Largest pool worker counted on top of the parent (shared pages twice).
            "peak_rss_kb": own + workers,
            "attempted": len(calls) * w.ops_per_call,
            "failed": self.failed_ops(calls, reference, capture),
            "messages": self.messages,
        }

    def tracing(self) -> dict:
        import checks

        w = self.workload
        self.call(1, warm=True)
        if w.jobs > 1:
            self.call(w.jobs, warm=True)
        rec = Recorder()
        timer = Recorder(number_trials=False)  # map_trials only, in untraced calls
        capture = None if w.name == "fit_predict_wide" else checks.Capture()
        untraced, traced, pooled = [], [], []
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start < self.seconds
                             and self.room_for((time.perf_counter() - start) / len(traced))):
            undo = timer.install(MAP_TRIALS) if w.jobs == 1 else []
            untraced.append(self.call(1))
            unpatch(undo)
            rec.request = len(traced)
            undo = rec.install()
            try:
                if capture is not None and not traced:
                    traced.append(self.captured_call(capture))
                else:
                    traced.append(self.call(1))
            finally:
                unpatch(undo)
            if w.jobs > 1:
                undo = timer.install(MAP_TRIALS)
                pooled.append(self.call(w.jobs))
                unpatch(undo)
        rec.dump(self.spans_path)

        reference = traced[0][1] if capture is not None else untraced[0][1]
        calls = untraced + traced + pooled
        return {
            "layers": layer_metrics(rec, timer, len(traced), w.trials_per_call,
                                    [s for s, _ in untraced], [s for s, _ in traced]),
            "attempted": len(calls) * w.ops_per_call,
            "failed": self.failed_ops(calls, reference, capture),
            "messages": self.messages,
        }


def layer_metrics(rec: Recorder, timer: Recorder, n_calls: int, trials_per_call: int,
                  untraced_s: list, traced_s: list) -> dict[str, float]:
    """Per-layer figures per CLI call, averaged over the traced calls."""
    totals = rec.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / n_calls

    out = {}
    for name in ("neighbors.order_rows", "negbin.adjusted_pvalue_many", "binary.evidence_pair"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in (
        "neighbors.order_rows", "neighbors.distance_rows", "negbin.adjusted_pvalue_many",
        "binary.classify_binary_batch", "binary.evidence_pair",
        "multiclass.classify_ovo_plus_batch", "multiclass.classify_ovr_plus_batch",
        "baselines.select_k_cv", "baselines.knn_classify_batch",
        "data_io.load_csv", "data_io.balanced_split", "data_io.standardize",
        "simulation.sample_mixture", "simulation.bayes_classify_batch",
        "metrics.confusion", "metrics.prf", "metrics.aggregate_trials", "cli.main",
    ):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["neighbors.order_rows.elements"] = get("neighbors.order_rows", "elements")
    out["neighbors.orderings_per_trial"] = get("neighbors.order_rows", "calls") / trials_per_call
    out["neighbors.distance_rows.cells"] = get("neighbors.distance_rows", "cells")
    out["neighbors.distance_rows.bytes_computed"] = get("neighbors.distance_rows", "bytes_computed")
    out["negbin.adjusted_pvalue_many.cells"] = cells = get("negbin.adjusted_pvalue_many", "cells")
    short = get("negbin.adjusted_pvalue_many", "short_cells")
    out["negbin.short_span_frac"] = short / cells if cells else 0.0
    out["multiclass.pair_fits"] = rec.count_under("binary.fit_binary", "multiclass.") / n_calls
    for method in METHODS:
        out[f"methods.predict_with_method.{method}.total_s"] = get(
            f"methods.predict_with_method.{method}", "total_s"
        )
    map_spans = [s[5] - s[4] for s in timer.spans]
    out["methods.map_trials.self_s"] = statistics.median(map_spans) if map_spans else 0.0
    out["methods.map_trials.args_bytes"] = get("methods.map_trials", "args_bytes")
    out["data_io.load_csv.rows"] = get("data_io.load_csv", "rows")
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import nbknn.cli

    src = os.path.realpath(os.path.join(job["root"], "src"))
    if os.path.dirname(os.path.dirname(os.path.realpath(nbknn.cli.__file__))) != src:
        print(f"nbknn was imported from {nbknn.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    runner = Runner(job, nbknn.cli)
    result = runner.tracing() if job["trace"] else runner.timing()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
