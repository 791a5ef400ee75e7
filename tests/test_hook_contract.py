"""The calls that outside instrumentation sees in a trial.

A tracer or an output checker may replace a package function at every
``nbknn`` module attribute that refers to it, so that callers pick the
wrapper up through their usual lookups, and read the arguments.  These
tests pin what such a wrapper sees in one ``simulate`` and one
``benchmark`` trial run through the CLI:

- one ``methods.predict_with_method`` call per method, in method order,
  with the method name, the training set and the queries as its first
  three positional arguments;
- one ``metrics.confusion`` call per method, outside every prediction,
  right after it;
- exactly one ``baselines.select_k_cv`` call inside each k-NN or wnn
  prediction, and none inside another method's;
- exactly one ``baselines._stratified_folds`` call inside each
  ``select_k_cv``, and none anywhere else;
- ``negbin.adjusted_pvalue_many`` calls inside each evidence prediction
  and none inside another method's: in a ``simulate`` trial, the
  'proposed' prediction reads its whole sweep in one call, with ``k`` of
  shape (1, k_eff) and ``n_obs`` of shape (n_test, k_eff).  A run's
  evidence table lives inside that function, so such a wrapper still
  sees every cell read.

Every ``(module, function)`` that the benchmark's output checker in
``bench/checks.py`` wraps must exist and be pinned here, since the
checker skips a target it cannot find.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import nbknn.baselines
import nbknn.methods
import nbknn.metrics
import nbknn.negbin
from nbknn import LabeledDataset, SplitSpec, balanced_split, load_csv
from nbknn.cli import main

HOOKS = (
    (nbknn.methods, "predict_with_method"),
    (nbknn.metrics, "confusion"),
    (nbknn.baselines, "select_k_cv"),
    (nbknn.negbin, "adjusted_pvalue_many"),
    (nbknn.baselines, "_stratified_folds"),
)


@pytest.fixture()
def calls(monkeypatch):
    """(function name, index of the innermost enclosing hooked call or None,
    positional arguments) of every hooked call, each hook wrapped at all of
    its aliases."""
    record, open_calls = [], []
    modules = [mod for name, mod in sys.modules.items() if name == "nbknn" or name.startswith("nbknn.")]

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            record.append((name, open_calls[-1] if open_calls else None, args))
            open_calls.append(len(record) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                open_calls.pop()
        return wrapper

    for home, name in HOOKS:
        original = getattr(home, name)
        wrapper = wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return record


def _assert_one_trial(calls, methods, n_train, n_test, dim):
    outer = [(name, args) for name, parent, args in calls if parent is None]
    assert [name for name, _ in outer] == ["predict_with_method", "confusion"] * len(methods)
    for (_, predict_args), name in zip(outer[::2], methods):
        method, train, queries = predict_args[:3]
        assert method == name
        assert isinstance(train, LabeledDataset) and train.n == n_train
        assert np.shape(queries) == (n_test, dim)
    predictions = [i for i, (name, parent, _) in enumerate(calls) if name == "predict_with_method"]
    for i in predictions:
        method = calls[i][2][0]
        inside = [name for name, parent, _ in calls if parent == i]
        expected = ["select_k_cv"] if method in ("knn", "wnn") else []
        assert [name for name in inside if name not in ("confusion", "adjusted_pvalue_many")] == expected, method
        assert ("adjusted_pvalue_many" in inside) == (method in ("proposed", "ovo_plus", "ovr_plus")), method
    for i, (name, parent, _) in enumerate(calls):
        if name == "select_k_cv":
            inner = [inside for inside, at, _ in calls if at == i and inside != "confusion"]
            assert inner == ["_stratified_folds"]
        if name == "_stratified_folds":
            assert parent is not None and calls[parent][0] == "select_k_cv"


def test_simulate_trial_calls(tmp_path, calls):
    argv = ["simulate", "--design", "location", "--alpha", "0.3", "--trials", "1",
            "--train-size", "120", "--test-size", "40", "--seed", "3",
            "--output", str(tmp_path / "sim.json")]
    assert main(argv) == 0
    _assert_one_trial(calls, ("proposed", "knn", "wnn", "bayes"), 120, 40, 2)
    proposed = next(i for i, (name, _, args) in enumerate(calls) if name == "predict_with_method")
    sweeps = [args for name, parent, args in calls if name == "adjusted_pvalue_many" and parent == proposed]
    assert len(sweeps) == 1
    k, n_obs = sweeps[0][:2]
    assert np.shape(k) == (1, 36) and np.shape(n_obs) == (40, 36)  # k_eff: the 36 minority rows (0.3 of 120)


def test_benchmark_trial_calls(tmp_path, calls):
    rng = np.random.default_rng(11)
    counts = (40, 30, 20)
    rows = [(*(rng.normal(size=2) + 2.0 * c).tolist(), name)
            for c, (count, name) in enumerate(zip(counts, "abc")) for _ in range(count)]
    path = tmp_path / "three.csv"
    path.write_text("u,v,kind\n" + "".join(f"{u!r},{v!r},{name}\n" for u, v, name in rows))
    argv = ["benchmark", "--input", str(path), "--label-column", "kind", "--trials", "1",
            "--seed", "4", "--output", str(tmp_path / "bench.json")]
    assert main(argv) == 0
    train, test = balanced_split(load_csv(str(path), "kind").data, SplitSpec(0.25, seed=4, trials=1), 0)
    _assert_one_trial(calls, ("ovo_plus", "ovr_plus", "knn", "wnn"), train.n, test.n, 2)


def test_checker_targets_are_pinned():
    # Read only: every (module, function) literal passed to patch(...) in
    # bench/checks.py resolves in nbknn.<module> and is in HOOKS.
    path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    patches = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"]
    targets = {tuple(e.value for e in pair.elts) for call in patches for pair in ast.walk(call)
               if isinstance(pair, ast.Tuple) and len(pair.elts) == 2
               and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in pair.elts)}
    assert targets
    pinned = {(home.__name__, name) for home, name in HOOKS}
    for module, name in sorted(targets):
        assert callable(getattr(importlib.import_module(f"nbknn.{module}"), name, None)), (module, name)
        assert (f"nbknn.{module}", name) in pinned, (module, name)
