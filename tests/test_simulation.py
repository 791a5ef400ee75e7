"""Mixture sampling, the density oracle, and experiment drivers."""

import math

import numpy as np
import pytest

from nbknn import (
    GaussianClassSpec,
    bayes_classify_batch,
    run_location_experiment,
    run_scale_experiment,
    sample_mixture,
)
import nbknn.methods
from nbknn.methods import MethodNameError, map_trials, validate_methods
from nbknn.simulation import location_specs, scale_specs


class TestGaussianClassSpec:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma2"):
            GaussianClassSpec(mean=(0.0,), sigma2=0.0, prior=0.5)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError, match="prior"):
            GaussianClassSpec(mean=(0.0,), sigma2=1.0, prior=1.5)


class TestSampleMixture:
    def test_imbalanced_counts(self):
        ds = sample_mixture(location_specs(), 1000, (0.95, 0.05), seed=0, stream=0)
        assert ds.class_counts.tolist() == [950, 50]

    def test_tiny_balanced_counts(self):
        ds = sample_mixture(location_specs(), 4, (0.5, 0.5), seed=0, stream=0)
        assert ds.class_counts.tolist() == [2, 2]

    def test_rounding_remainder_to_largest(self):
        specs = (
            GaussianClassSpec(mean=(0.0,), sigma2=1.0, prior=0.4),
            GaussianClassSpec(mean=(1.0,), sigma2=1.0, prior=0.3),
            GaussianClassSpec(mean=(2.0,), sigma2=1.0, prior=0.3),
        )
        ds = sample_mixture(specs, 10, (1 / 3, 1 / 3, 1 / 3), seed=0, stream=0)
        assert ds.class_counts.sum() == 10
        assert ds.class_counts.tolist() == [4, 3, 3]

    def test_same_seed_stream_identical(self):
        a = sample_mixture(location_specs(), 50, (0.5, 0.5), seed=3, stream=9)
        b = sample_mixture(location_specs(), 50, (0.5, 0.5), seed=3, stream=9)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_stream_differs(self):
        a = sample_mixture(location_specs(), 50, (0.5, 0.5), seed=3, stream=9)
        b = sample_mixture(location_specs(), 50, (0.5, 0.5), seed=3, stream=10)
        assert not np.array_equal(a.points, b.points)

    def test_rejects_bad_proportions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sample_mixture(location_specs(), 10, (0.5, 0.4), seed=0, stream=0)

    def test_sample_mean_converges(self):
        specs = location_specs()
        ds = sample_mixture(specs, 100_000, (0.5, 0.5), seed=5, stream=1)
        for cls, spec in enumerate(specs, start=1):
            pts = ds.points[ds.labels == cls]
            bound = 4.0 / math.sqrt(pts.shape[0])
            np.testing.assert_allclose(pts.mean(axis=0), spec.mean, atol=bound)


class TestBayesOracle:
    def test_separating_diagonal_tie_break(self):
        assert bayes_classify_batch(location_specs(), [[0.5, 0.5]]).tolist() == [1]

    def test_class_means(self):
        specs = location_specs()
        assert bayes_classify_batch(specs, [[0.0, 0.0]]).tolist() == [1]
        assert bayes_classify_batch(specs, [[1.0, 1.0]]).tolist() == [2]

    def test_scale_design_circular_boundary(self):
        # Equal priors, sigma 1 vs 2 in two dimensions: the narrow class
        # wins exactly when ||x||^2 < 4 ln 2.
        specs = scale_specs("wide")
        r2 = 4.0 * math.log(2.0)
        inside = math.sqrt(r2 * 0.98)
        outside = math.sqrt(r2 * 1.02)
        assert bayes_classify_batch(specs, [[inside, 0.0]]).tolist() == [1]
        assert bayes_classify_batch(specs, [[outside, 0.0]]).tolist() == [2]
        assert bayes_classify_batch(specs, [[0.0, -outside]]).tolist() == [2]

    def test_prior_scaling_invariance_of_argmax(self):
        base = (
            GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.6),
            GaussianClassSpec(mean=(1.5, 0.0), sigma2=1.0, prior=0.3),
        )
        # Same ratio, different normalization subset of (0,1).
        scaled = (
            GaussianClassSpec(mean=(0.0, 0.0), sigma2=1.0, prior=0.2),
            GaussianClassSpec(mean=(1.5, 0.0), sigma2=1.0, prior=0.1),
        )
        queries = np.random.default_rng(0).normal(size=(200, 2))
        np.testing.assert_array_equal(
            bayes_classify_batch(base, queries), bayes_classify_batch(scaled, queries)
        )

    def test_swapping_spec_order_swaps_labels(self):
        specs = scale_specs("wide")
        swapped = (specs[1], specs[0])
        queries = np.random.default_rng(1).normal(size=(200, 2)) * 1.4
        a = bayes_classify_batch(specs, queries)
        b = bayes_classify_batch(swapped, queries)
        boundary = np.isclose((queries**2).sum(axis=1), 4.0 * math.log(2.0))
        assert np.all((a != b) | boundary)


class TestDrivers:
    def test_trials_one_reports_zero_se(self):
        reports = run_location_experiment(
            0.4, trials=1, seed=0, methods=["bayes"], train_size=60, test_size=60
        )
        assert reports[0].f1.se == 0.0
        assert reports[0].trials == 1

    def test_deterministic_end_to_end(self):
        kwargs = dict(trials=3, seed=5, methods=["proposed", "bayes"], train_size=80, test_size=60)
        a = run_location_experiment(0.3, **kwargs)
        b = run_location_experiment(0.3, **kwargs)
        for ra, rb in zip(a, b):
            assert ra.f1 == rb.f1
            assert ra.precision == rb.precision

    def test_jobs_do_not_change_results(self):
        kwargs = dict(trials=4, seed=5, methods=["proposed"], train_size=80, test_size=60)
        serial = run_location_experiment(0.3, jobs=1, **kwargs)
        parallel = run_location_experiment(0.3, jobs=4, **kwargs)
        assert serial[0].precision == parallel[0].precision
        assert serial[0].recall == parallel[0].recall
        assert serial[0].f1 == parallel[0].f1
        assert [r.macro_f1 for r in serial[0].per_trial] == [
            r.macro_f1 for r in parallel[0].per_trial
        ]

    def test_pool_is_no_wider_than_the_trials(self, monkeypatch):
        # A process pool forks all of its workers at the first submit, so
        # workers beyond the trial count would only be forked to idle.
        widths = []

        class RecordingPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args_list, chunksize=1):
                return map(fn, args_list)

        monkeypatch.setattr(nbknn.methods, "ProcessPoolExecutor", RecordingPool)
        assert map_trials(abs, [-1, -2], jobs=64) == [1, 2]
        assert map_trials(abs, [-1, -2, -3, -4], jobs=3) == [1, 2, 3, 4]
        assert widths == [2, 3]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'foo'"):
            run_location_experiment(0.3, trials=1, seed=0, methods=["foo"])

    @pytest.mark.parametrize("methods", ["knn", "proposed"])
    def test_bare_string_method_list_rejected(self, methods):
        # A string is a sequence of characters, not of method names.
        with pytest.raises(MethodNameError, match=f"sequence of method names.*'{methods}'"):
            run_location_experiment(0.3, trials=1, seed=0, methods=methods)
        with pytest.raises(MethodNameError, match=f"'{methods}'"):
            validate_methods(methods)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            run_location_experiment(0.0, trials=1, seed=0, methods=["bayes"])
        with pytest.raises(ValueError, match="alpha"):
            run_location_experiment(0.6, trials=1, seed=0, methods=["bayes"])
        # Balanced case is allowed.
        run_location_experiment(
            0.5, trials=1, seed=0, methods=["bayes"], train_size=40, test_size=40
        )

    def test_scale_roles(self):
        wide = run_scale_experiment(
            0.4, "wide", trials=1, seed=0, methods=["bayes"], train_size=60, test_size=400
        )[0]
        narrow = run_scale_experiment(
            0.4, "narrow", trials=1, seed=0, methods=["bayes"], train_size=60, test_size=400
        )[0]
        assert 0.4 < wide.f1.mean < 0.8
        assert 0.4 < narrow.f1.mean < 0.8

    def test_bad_minority_role(self):
        with pytest.raises(ValueError, match="minority_role"):
            run_scale_experiment(0.4, "medium", trials=1, seed=0, methods=["bayes"])

    def test_scale_proposed_lands_in_plausible_band(self):
        # Scale problems are much harder than location ones; the
        # evidence classifier sits near but below the 61.9% ceiling.
        report = run_scale_experiment(
            0.4, "wide", trials=10, seed=1, methods=["proposed"]
        )[0]
        assert 0.55 < report.f1.mean < 0.65

    def test_report_order_matches_request(self):
        reports = run_location_experiment(
            0.4, trials=1, seed=0, methods=["bayes", "proposed"], train_size=60, test_size=40
        )
        assert [r.method for r in reports] == ["bayes", "proposed"]
