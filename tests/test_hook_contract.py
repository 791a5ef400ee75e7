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
  prediction, and none inside another method's.
"""

import sys

import numpy as np
import pytest

import nbknn.baselines
import nbknn.methods
import nbknn.metrics
from nbknn import LabeledDataset, SplitSpec, balanced_split, load_csv
from nbknn.cli import main

HOOKS = (
    (nbknn.methods, "predict_with_method"),
    (nbknn.metrics, "confusion"),
    (nbknn.baselines, "select_k_cv"),
)


@pytest.fixture()
def calls(monkeypatch):
    """(function name, index of the enclosing prediction or None, positional
    arguments) of every hooked call, each hook wrapped at all of its aliases."""
    record, open_predictions = [], []
    modules = [mod for name, mod in sys.modules.items() if name == "nbknn" or name.startswith("nbknn.")]

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            record.append((name, open_predictions[-1] if open_predictions else None, args))
            if name != "predict_with_method":
                return original(*args, **kwargs)
            open_predictions.append(len(record) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                open_predictions.pop()
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
        inside = [name for name, parent, _ in calls if parent == i]
        expected = ["select_k_cv"] if calls[i][2][0] in ("knn", "wnn") else []
        assert [name for name in inside if name != "confusion"] == expected, calls[i][2][0]


def test_simulate_trial_calls(tmp_path, calls):
    argv = ["simulate", "--design", "location", "--alpha", "0.3", "--trials", "1",
            "--train-size", "120", "--test-size", "40", "--seed", "3",
            "--output", str(tmp_path / "sim.json")]
    assert main(argv) == 0
    _assert_one_trial(calls, ("proposed", "knn", "wnn", "bayes"), 120, 40, 2)


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
