"""Span recorder for the traced run, installed from outside the package.

A wrapper replaces each traced function at every ``nbknn`` module
attribute that refers to it (``nbknn.binary.order_rows``,
``nbknn.baselines.order_rows``, ...), so callers pick it up through
their normal lookups.  Spans (name, parent, request, trial, start, end,
work counts) are kept in memory and written out once the run ends.
Work counts are computed from the call's arguments or result after the
span has closed, so they add nothing to the traced function's own time.
"""

from __future__ import annotations

import itertools
import json
import pickle
import sys
import time
from collections import defaultdict

import numpy as np

DIRECT_TERMS = 64  # evidence cells with n - k at most this take the summation branch


def call_arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _distance_work(args, kwargs, result):
    points, queries = call_arg(args, kwargs, 0, "points"), call_arg(args, kwargs, 1, "queries")
    (n, p), m = points.shape, queries.shape[0]
    return {"cells": m * n * p, "bytes_computed": 8 * (m * p + n * p + m * n)}


def _order_work(args, kwargs, result):
    return {"elements": int(np.asarray(result).size)}


def _pvalue_work(args, kwargs, result):
    k = np.asarray(call_arg(args, kwargs, 0, "k"))
    n_obs = np.asarray(call_arg(args, kwargs, 1, "n_obs"))
    span = n_obs - k
    return {"cells": int(span.size), "short_cells": int(np.count_nonzero(span <= DIRECT_TERMS))}


def _load_work(args, kwargs, result):
    return {"rows": int(result.data.n)}


def _map_work(args, kwargs, result):
    args_list = call_arg(args, kwargs, 1, "args_list")
    return {"args_bytes": sum(len(pickle.dumps(a)) for a in args_list)}


# module -> function -> work counter (None: time only).
TRACED = {
    "neighbors": {"distance_rows": _distance_work, "order_rows": _order_work},
    "negbin": {"adjusted_pvalue_many": _pvalue_work},
    "binary": {"fit_binary": None, "classify_binary_batch": None, "evidence_pair": None},
    "multiclass": {
        "classify_ovo_plus_batch": None,
        "classify_ovr_plus_batch": None,
        "ovr_round_evidence": None,
    },
    "baselines": {"knn_with_cv": None, "select_k_cv": None, "knn_classify_batch": None},
    "methods": {"validate_methods": None, "predict_with_method": None, "map_trials": _map_work},
    "data_io": {
        "load_csv": _load_work,
        "split_indices": None,
        "balanced_split": None,
        "standardize": None,
    },
    "simulation": {
        "run_location_experiment": None,
        "sample_mixture": None,
        "bayes_classify_batch": None,
    },
    "metrics": {"confusion": None, "prf": None, "aggregate_trials": None, "efficiency_scores": None},
    "benchmark": {"run_csv_benchmark": None},
    "cli": {"main": None},
}


def patch(targets, make_wrapper) -> list:
    """Replace each ``(module, function)`` pair in ``targets`` at all of its aliases.

    ``make_wrapper(module, function, original)`` builds the replacement.
    Targets missing from the package are skipped.  Returns the undo list
    for :func:`unpatch`.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "nbknn" or name.startswith("nbknn.")}
    undo = []
    for mod_name, func_name in targets:
        home = modules.get(f"nbknn.{mod_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if original is None:
            continue
        wrapper = make_wrapper(mod_name, func_name, original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


def unpatch(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Recorder:
    """In-memory spans for one traced run."""

    def __init__(self, number_trials: bool = True) -> None:
        # Numbering wraps the per-trial function in a closure, which a
        # process pool cannot pickle: turn it off for calls at jobs > 1.
        self.number_trials = number_trials
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.trial = -1

    def install(self, targets=None) -> list:
        if targets is None:
            targets = [(m, f) for m, funcs in TRACED.items() for f in funcs]
        return patch(targets, self._wrapper)

    def _wrapper(self, mod_name: str, func_name: str, original):
        rec = self
        counter = TRACED.get(mod_name, {}).get(func_name)
        base = f"{mod_name}.{func_name}"
        per_method = base == "methods.predict_with_method"
        is_map = base == "methods.map_trials" and self.number_trials

        def traced(*args, **kwargs):
            name = f"{base}.{call_arg(args, kwargs, 0, 'name')}" if per_method else base
            if is_map:
                args, kwargs = rec._number_trials(args, kwargs)
            span = [name, rec._stack[-1] if rec._stack else None, rec.request, rec.trial,
                    0.0, 0.0, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[4] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                rec._stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _number_trials(self, args, kwargs):
        """Wrap the per-trial function so spans carry their trial index."""
        fn = call_arg(args, kwargs, 0, "fn")
        counter = itertools.count()

        def numbered(trial_args):
            outer, self.trial = self.trial, next(counter)
            try:
                return fn(trial_args)
            finally:
                self.trial = outer

        if args:
            return (numbered,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, fn=numbered)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s and summed work counts.

        Self time is a span's duration minus the time its direct child
        spans cover; children of one span run one after another.
        """
        child = [0.0] * len(self.spans)
        for name, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, _, _, _, start, end, work) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            for key, value in (work or {}).items():
                entry[key] += value
        return out

    def count_under(self, name: str, ancestor_prefix: str) -> int:
        """Spans called ``name`` that run inside a span whose name has the prefix."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent is not None:
                if self.spans[parent][0].startswith(ancestor_prefix):
                    count += 1
                    break
                parent = self.spans[parent][1]
        return count

    def dump(self, path) -> None:
        keys = ("name", "parent", "request", "trial", "start", "end", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
