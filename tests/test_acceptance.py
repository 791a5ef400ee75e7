"""Acceptance suite.

Each test prints one `[criterion NN] ... PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s`) and asserts the stated
tolerance.  The expensive simulation configurations are shared through
session-scoped fixtures.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nbknn import (
    GaussianClassSpec,
    adjusted_pvalue_many,
    bayes_classify_batch,
    binary_evidence_batch,
    classify_binary_batch,
    classify_ovo_plus_batch,
    classify_ovr_plus_batch,
    confusion,
    fit_binary,
    prf,
    run_location_experiment,
    sample_mixture,
)
from nbknn.cli import main
from nbknn.negbin import _log_pmf_many
from nbknn.simulation import location_specs, scale_specs

from conftest import _lower_tail_many, brute_force_evidence, make_dataset

DATA_DIR = Path(__file__).parent / "data"

P0_GRID = (0.05, 0.1, 0.3, 0.5)
K_GRID = range(1, 21)


def check(num: int, description: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {description}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} {description}: {detail}"


@pytest.fixture(scope="session")
def location_a05():
    return run_location_experiment(
        alpha=0.05, trials=100, seed=0, methods=("proposed", "knn"), k_max=45, jobs=2
    )


@pytest.fixture(scope="session")
def location_a40():
    return run_location_experiment(
        alpha=0.40, trials=100, seed=0, methods=("proposed", "knn"), k_max=45, jobs=2
    )


@pytest.fixture(scope="session")
def location_a50():
    return run_location_experiment(
        alpha=0.50, trials=100, seed=0, methods=("proposed", "knn"), k_max=45, jobs=2
    )


def test_criterion_01_bayes_location():
    specs = location_specs()
    test = sample_mixture(specs, 1_000_000, (0.5, 0.5), seed=0, stream=101)
    report = prf(confusion(test.labels, bayes_classify_batch(specs, test.points), 2))
    values = {
        "P": 100 * report.macro_precision,
        "R": 100 * report.macro_recall,
        "F1": 100 * report.macro_f1,
    }
    ok = all(abs(v - 76.025) <= 0.5 for v in values.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in values.items()) + " vs 76.025 +/- 0.5"
    check(1, "Bayes oracle, location design", ok, detail)


def test_criterion_02_bayes_scale():
    specs = scale_specs("wide")
    test = sample_mixture(specs, 1_000_000, (0.5, 0.5), seed=0, stream=102)
    report = prf(confusion(test.labels, bayes_classify_batch(specs, test.points), 2))
    p, r, f1 = (
        100 * report.macro_precision,
        100 * report.macro_recall,
        100 * report.macro_f1,
    )
    ok = abs(f1 - 62.5) <= 0.7 and abs(p - 63.3) <= 0.7 and abs(r - 61.9) <= 0.7
    detail = f"F1={f1:.3f} (62.5+/-0.7), P={p:.3f} (63.3+/-0.7), R={r:.3f} (61.9+/-0.7)"
    check(2, "Bayes oracle, scale design", ok, detail)


def test_criterion_03_table_reproduction_alpha_005(location_a05):
    proposed = location_a05[0]
    p, r, f1 = (
        100 * proposed.precision.mean,
        100 * proposed.recall.mean,
        100 * proposed.f1.mean,
    )
    ok = abs(f1 - 73.53) <= 1.5 and abs(p - 74.59) <= 1.5 and abs(r - 73.76) <= 1.5
    detail = f"F1={f1:.2f} (73.53+/-1.5), P={p:.2f} (74.59+/-1.5), R={r:.2f} (73.76+/-1.5)"
    check(3, "proposed vs reference values, alpha=0.05", ok, detail)


def test_criterion_04_table_reproduction_alpha_040(location_a40):
    proposed, knn = location_a40
    pf1 = 100 * proposed.f1.mean
    kf1 = 100 * knn.f1.mean
    ok = abs(pf1 - 75.68) <= 1.0 and abs(kf1 - 74.07) <= 1.0
    detail = f"proposed F1={pf1:.2f} (75.68+/-1.0), knn F1={kf1:.2f} (74.07+/-1.0)"
    check(4, "proposed and k-NN, alpha=0.40", ok, detail)


def test_criterion_05_imbalance_gap(location_a05):
    proposed, knn = location_a05
    gap = 100 * (proposed.f1.mean - knn.f1.mean)
    detail = f"gap={gap:.2f} pp (needs >= 10)"
    check(5, "k-NN falls far behind under imbalance", gap >= 10.0, detail)


def test_criterion_06_balanced_sanity(location_a50):
    proposed, knn = location_a50
    diff = abs(100 * (proposed.f1.mean - knn.f1.mean))
    detail = (
        f"|{100 * proposed.f1.mean:.2f} - {100 * knn.f1.mean:.2f}| = {diff:.2f} pp (<= 1.5)"
    )
    check(6, "balanced data: proposed matches k-NN", diff <= 1.5, detail)


def _exact_tails(p0: float, k: int, n_max: int) -> list[tuple[float, float]]:
    """(P(N < n), mid-p) for n = k..n_max, each the exact value rounded once.

    p0 = a / 2^m exactly, so scaled by 2^(m n) the pmf P(n) and the tail
    T(n) are integers: P(k) = a^k, P(n+1) = P(n) (2^m - a) n / (n - k + 1)
    and T(n+1) = (T(n) + P(n)) 2^m.  int / int true division rounds
    correctly, as float(Fraction) does, with no gcd per step.
    """
    a, two_m = p0.as_integer_ratio()
    m = two_m.bit_length() - 1
    pmf, tail = a**k, 0
    out = []
    for n in range(k, n_max + 1):
        scale = 1 << (m * n)
        out.append((tail / scale, (2 * tail + pmf) / (2 * scale)))
        tail = (tail + pmf) << m
        pmf = pmf * (two_m - a) * n // (n - k + 1)
    return out


def _fraction_tails(p0: float, k: int, n_max: int) -> list[tuple[float, float]]:
    """The same values by a running exact ``Fraction`` pmf and tail."""
    p_exact = Fraction(p0)
    q_exact = 1 - p_exact
    pmf, tail = p_exact**k, Fraction(0)
    out = []
    for n in range(k, n_max + 1):
        out.append((float(tail), float(tail + pmf / 2)))
        tail += pmf
        pmf = pmf * q_exact * n / (n - k + 1)
    return out


def test_criterion_07_oracle_equivalence_grid():
    worst = 0.0
    for p0 in P0_GRID:
        for k in K_GRID:
            ns = np.arange(k, 501, dtype=np.int64)
            ks = np.full(ns.shape, k, dtype=np.int64)
            got_tail = _lower_tail_many(ks, ns, p0)
            got_mid = adjusted_pvalue_many(ks, ns, p0)
            exact = _exact_tails(p0, k, 500)
            if k <= 3:
                assert exact == _fraction_tails(p0, k, 500)
            for i, (expected_tail, expected_mid) in enumerate(exact):
                worst = max(
                    worst,
                    abs(got_tail[i] - expected_tail),
                    abs(got_mid[i] - expected_mid),
                )
    detail = f"max |err| = {worst:.2e} over k<=20, n<=500, p0 in {P0_GRID} (tol 1e-10)"
    check(7, "tail matches exact rational summation", worst <= 1e-10, detail)


def test_criterion_08_pmf_normalization():
    worst = 0.0
    for p0 in P0_GRID:
        q = 1.0 - p0
        for k in K_GRID:
            # Cross the bulk, then extend until the geometric tail bound
            # certifies the remainder below 1e-13.
            n_hi = int((k + 14.0 * math.sqrt(k * q)) / p0) + 64
            while True:
                ns = np.arange(k, n_hi + 1, dtype=np.int64)
                terms = np.exp(_log_pmf_many(np.full(ns.shape, k, dtype=np.int64), ns, p0))
                ratio = q * n_hi / (n_hi - k + 1)
                bound = terms[-1] * ratio / (1.0 - ratio) if ratio < 1 else math.inf
                if bound < 1e-13:
                    break
                n_hi *= 2
            worst = max(worst, 1.0 - float(terms.sum()))
    detail = f"max truncated mass = {worst:.2e} (tol 1e-12)"
    check(8, "pmf normalizes to one", worst < 1e-12, detail)


def test_criterion_09_binary_fixture_vs_oracle(two_class_fixture):
    queries = np.array(
        [
            [0.2, 0.1],
            [4.4, 0.4],
            [1.0, 3.9],
            [2.4, 1.6],
            [9.0, 9.0],
            [0.6, 3.8],
            [3.1, 0.4],
        ]
    )
    worst = 0.0
    for k_max in (1, 2, 3):
        _, got1, got2 = binary_evidence_batch(fit_binary(two_class_fixture, k_max), queries)
        for q, g1, g2 in zip(queries, got1, got2):
            e1, e2 = brute_force_evidence(two_class_fixture, q, k_max)
            worst = max(worst, abs(g1 - e1), abs(g2 - e2))
    detail = f"max |err| = {worst:.2e} over k_max in 1..3 (tol 1e-12)"
    check(9, "evidence matches scripted oracle on fixture", worst <= 1e-12, detail)


def test_criterion_10_multiclass_degeneracy():
    rng = np.random.default_rng(1001)
    mismatches = 0
    for trial in range(1000):
        ds = make_dataset(rng, n=int(rng.integers(5, 25)), dim=2, n_classes=2)
        query = rng.normal(size=(1, 2))
        binary = classify_binary_batch(fit_binary(ds, 45), query)[0]
        if (classify_ovo_plus_batch(ds, query, 45)[0] != binary
                or classify_ovr_plus_batch(ds, query, 45)[0] != binary):
            mismatches += 1
    detail = f"{mismatches} mismatches over 1000 random 2-class fixtures"
    check(10, "reductions degenerate to binary rule", mismatches == 0, detail)


def test_criterion_11_consistency_trend():
    specs = (
        GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.5),
        GaussianClassSpec(mean=(3.0, 0.0), sigma2=1.0, prior=0.3),
        GaussianClassSpec(mean=(0.0, 3.0), sigma2=2.0, prior=0.2),
    )
    probes = sample_mixture(specs, 100, (0.5, 0.3, 0.2), seed=7, stream=900)
    bayes = bayes_classify_batch(specs, probes.points)
    agreement = {"ovo_plus": [], "ovr_plus": []}
    for n in (300, 1000, 3000):
        train = sample_mixture(specs, n, (0.5, 0.3, 0.2), seed=7, stream=n)
        k_max = math.ceil(n**0.7 / 10.0)
        agreement["ovo_plus"].append(
            int(np.sum(classify_ovo_plus_batch(train, probes.points, k_max) == bayes))
        )
        agreement["ovr_plus"].append(
            int(np.sum(classify_ovr_plus_batch(train, probes.points, k_max) == bayes))
        )
    ok = all(
        values[i + 1] >= values[i] - 2
        for values in agreement.values()
        for i in range(2)
    )
    detail = f"agreement/100 across n=(300,1000,3000): {agreement}"
    check(11, "oracle agreement trend is nondecreasing", ok, detail)


def test_criterion_12_cli_determinism(tmp_path):
    from test_cli import write_binary_fixture

    sim_args = [
        "simulate", "--design", "location", "--alpha", "0.3", "--trials", "3",
        "--seed", "5", "--methods", "proposed,knn", "--train-size", "120",
        "--test-size", "80",
    ]
    a, b = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(sim_args + ["--output", str(a)]) == 0
    assert main(sim_args + ["--output", str(b)]) == 0
    sim_ok = a.read_bytes() == b.read_bytes()

    csv_path = tmp_path / "bench.csv"
    write_binary_fixture(csv_path)
    bench_args = [
        "benchmark", "--input", str(csv_path), "--label-column", "outcome",
        "--trials", "8", "--seed", "5",
    ]
    j1, j8 = tmp_path / "j1.json", tmp_path / "j8.json"
    assert main(bench_args + ["--jobs", "1", "--output", str(j1)]) == 0
    assert main(bench_args + ["--jobs", "8", "--output", str(j8)]) == 0
    bench_ok = j1.read_bytes() == j8.read_bytes()

    detail = f"simulate rerun identical: {sim_ok}; benchmark jobs 1 vs 8 identical: {bench_ok}"
    check(12, "byte-identical reports", sim_ok and bench_ok, detail)


def test_criterion_13_benchmark_golden_protocol(tmp_path):
    from test_cli import write_binary_fixture

    # The report embeds the input basename, so the name is part of the pin.
    csv_path = tmp_path / "binary.csv"
    write_binary_fixture(csv_path)
    out = tmp_path / "report.json"
    code = main(
        ["benchmark", "--input", str(csv_path), "--label-column", "outcome",
         "--trials", "5", "--seed", "2024", "--k-max", "15", "--output", str(out)]
    )
    golden = (DATA_DIR / "golden_benchmark.json").read_bytes()
    produced = out.read_bytes()
    ok = code == 0 and produced == golden
    doc = json.loads(produced)
    detail = (
        f"exit={code}, golden match={produced == golden}, "
        f"methods={[m['name'] for m in doc['methods']]}"
    )
    check(13, "split protocol pinned by golden report", ok, detail)
