import json
import re
from fractions import Fraction

import numpy as np
import pytest

from typetaste import ingest, kmeans, pca
from typetaste.domain import CATEGORY_ORDER
from typetaste.errors import Error
from typetaste.kmeans import (
    DEFAULT_MAX_ITERS,
    INIT_KMEANSPP,
    INIT_RANDOM,
    MAX_RESTARTS,
    ClusteringResult,
    KmeansConfig,
    fit,
    init_kmeanspp,
    init_random,
    lloyd,
)

from oracles import best_partition_sse_oracle, kmeanspp_oracle, lloyd_oracle

UNIT_SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def hypercube_blobs(points_per_blob=30, noise=0.5, seed=0):
    """16 well-separated blobs at the corners of a scaled 4-cube, embedded in 8-D."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((16, 8))
    for i in range(16):
        centers[i, :4] = [20.0 * ((i >> b) & 1) for b in range(4)]
    X = np.vstack(
        [c + rng.normal(scale=noise, size=(points_per_blob, 8)) for c in centers]
    )
    labels = np.repeat(np.arange(16), points_per_blob)
    return X, labels


class TestConfig:
    def test_defaults(self):
        config = KmeansConfig(k=16)
        assert config.init == INIT_KMEANSPP
        assert config.max_iters == 300
        assert config.tol == 1e-6
        assert config.restarts == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "init": "farthest"},
            {"k": 2, "max_iters": 0},
            {"k": 2, "tol": -1.0},
            {"k": 2, "seed": -1},
            {"k": 2, "seed": 2**64},
            {"k": 2, "restarts": 0},
            {"k": 2.5},
            {"k": True},
            {"k": "3"},
            {"k": 2, "max_iters": 2.5},
            {"k": 2, "max_iters": True},
            {"k": 2, "restarts": 2.5},
            {"k": 2, "restarts": np.float64(3.0)},
            {"k": 2, "seed": 2.5},
            {"k": 2, "seed": True},
            {"k": 2, "seed": "3"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(Error):
            KmeansConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"restarts": 10**30}, f"restarts must be at most 1000000, got {10**30}"),
            ({"tol": "x"}, "tol must be a real number, got str"),
            ({"tol": None}, "tol must be a real number, got NoneType"),
            ({"tol": True}, "tol must be a real number, got bool"),
            ({"tol": -1}, "tol must be non-negative, got -1"),
            ({"tol": float("nan")}, "tol must be non-negative, got nan"),
        ],
        ids=["restarts-past-bound", "tol-str", "tol-none", "tol-bool", "tol-negative-int",
             "tol-nan"],
    )
    def test_messages(self, kwargs, message):
        with pytest.raises(Error, match=f"^{re.escape(message)}$"):
            KmeansConfig(k=2, **kwargs)

    def test_bounds_accepted(self):
        """The largest restart count is accepted (no fit is started), and a
        real ``tol`` is stored as a float."""
        assert KmeansConfig(k=2, restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
        for tol in (0, np.float32(0.5), Fraction(1, 4)):
            config = KmeansConfig(k=2, tol=tol)
            assert type(config.tol) is float and config.tol == tol

    def test_integer_like_counts_stored_as_int(self):
        config = KmeansConfig(
            k=np.int64(3), max_iters=np.int32(50), restarts=np.uint8(2), seed=np.uint64(2**64 - 1)
        )
        values = (config.k, config.max_iters, config.restarts, config.seed)
        assert values == (3, 50, 2, 2**64 - 1)
        assert all(type(v) is int for v in values)


class TestInit:
    def test_kmeanspp_returns_data_rows(self, rng):
        X = rng.normal(size=(40, 3))
        centroids = init_kmeanspp(X, 5, seed=7)
        assert centroids.shape == (5, 3)
        for c in centroids:
            assert np.any(np.all(np.isclose(X, c), axis=1))

    def test_kmeanspp_rows_distinct_for_distinct_data(self, rng):
        X = rng.normal(size=(30, 2))
        centroids = init_kmeanspp(X, 30, seed=3)
        assert len(np.unique(centroids, axis=0)) == 30

    def test_kmeanspp_deterministic(self, rng):
        X = rng.normal(size=(25, 4))
        a = init_kmeanspp(X, 6, seed=42)
        b = init_kmeanspp(X, 6, seed=42)
        assert np.array_equal(a, b)
        c = init_kmeanspp(X, 6, seed=43)
        assert not np.array_equal(a, c)

    def test_kmeanspp_spreads_over_far_blobs(self):
        # With squared-distance weighting, both tight far-apart blobs get a seed.
        rng = np.random.default_rng(0)
        X = np.vstack(
            [rng.normal(0.0, 0.01, size=(50, 2)), rng.normal(100.0, 0.01, size=(50, 2))]
        )
        for seed in range(20):
            centroids = init_kmeanspp(X, 2, seed=seed)
            sides = {0 if c[0] < 50 else 1 for c in centroids}
            assert sides == {0, 1}

    def test_kmeanspp_handles_duplicate_points(self):
        X = np.ones((6, 2))
        centroids = init_kmeanspp(X, 4, seed=1)
        assert centroids.shape == (4, 2)
        assert np.all(centroids == 1.0)

    def test_random_init_distinct_rows(self, rng):
        X = rng.normal(size=(20, 3))
        centroids = init_random(X, 20, seed=5)
        assert len(np.unique(centroids, axis=0)) == 20

    def test_random_init_deterministic(self, rng):
        X = rng.normal(size=(20, 3))
        assert np.array_equal(init_random(X, 4, seed=9), init_random(X, 4, seed=9))

    def test_too_few_points(self, rng):
        X = rng.normal(size=(3, 2))
        with pytest.raises(Error, match="^cannot seed 4 centroids from 3 points$"):
            init_kmeanspp(X, 4, seed=0)
        with pytest.raises(Error, match="^cannot seed 4 centroids from 3 points$"):
            init_random(X, 4, seed=0)

    @pytest.mark.parametrize(
        "k, seed, message",
        [
            (0, 0, "cannot seed 0 centroids from 3 points"),
            (-1, 0, "cannot seed -1 centroids from 3 points"),
            (2.5, 0, "k must be an integer, got float"),
            (True, 0, "k must be an integer, got bool"),
            (2, -1, "seed must be an unsigned 64-bit integer, got -1"),
            (2, "x", "seed must be an integer, got str"),
        ],
    )
    def test_seeding_arguments_checked(self, rng, k, seed, message):
        """Both seedings share one rule: before it, a fractional k seeded
        ceil(k) centroids and a k below 1 seeded one."""
        X = rng.normal(size=(3, 2))
        for init in (init_kmeanspp, init_random):
            with pytest.raises(Error, match=f"^{re.escape(message)}$"):
                init(X, k, seed)


class TestLloyd:
    def test_unit_square_two_clusters_matches_exhaustive(self):
        config = KmeansConfig(k=2, max_iters=50)
        result = lloyd(UNIT_SQUARE, UNIT_SQUARE[:2].copy(), config)
        assert result.inertia == 1.0
        assert result.inertia == best_partition_sse_oracle(UNIT_SQUARE, 2)

    def test_single_cluster_centroid_is_mean(self, rng):
        X = rng.normal(size=(30, 3))
        result = lloyd(X, X[:1].copy(), KmeansConfig(k=1))
        assert np.allclose(result.centroids[0], X.mean(axis=0), atol=1e-9)
        assert result.inertia == pytest.approx(((X - X.mean(0)) ** 2).sum())

    def test_k_equals_n_gives_zero_inertia(self, rng):
        X = rng.normal(size=(8, 2))
        result = lloyd(X, X.copy(), KmeansConfig(k=8))
        assert result.inertia == pytest.approx(0.0, abs=1e-18)
        assert sorted(result.assignments) == list(range(8))

    def test_assignments_are_nearest_centroid(self, rng):
        X = rng.normal(size=(60, 4))
        result = lloyd(X, init_random(X, 5, seed=2), KmeansConfig(k=5))
        d2 = ((X[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignments, d2.argmin(axis=1))
        assert result.inertia == pytest.approx(d2.min(axis=1).sum())

    def test_inertia_monotone_in_iteration_budget(self, survey_dataset):
        # Lloyd from the same start, stopped after m rounds, can only improve.
        trial_rng = np.random.default_rng(98)
        cases = []
        for _ in range(100):
            n = int(trial_rng.integers(5, 40))
            d = int(trial_rng.integers(1, 5))
            k = int(trial_rng.integers(1, min(n, 8) + 1))
            X = trial_rng.normal(size=(n, d)) * trial_rng.uniform(0.5, 5.0)
            cases.append((X, init_random(X, k, seed=int(trial_rng.integers(2**32)))))
        # Integer ratings from a start whose last two centroids lie beyond the
        # 0..6 scale, so no row picks them and the first round repairs both.
        X = survey_dataset.feature_matrix("movies")[:300]
        start = np.vstack([X[:6], np.full((2, X.shape[1]), 100.0)])
        first = ((X[:, None, :] - start) ** 2).sum(axis=2).argmin(axis=1)
        assert np.bincount(first, minlength=8)[6:].tolist() == [0, 0]
        cases.append((X, start))
        for X, start in cases:
            k = start.shape[0]
            inertias = [
                lloyd(X, start, KmeansConfig(k=k, max_iters=m, tol=0.0)).inertia
                for m in range(1, 7)
            ]
            for earlier, later in zip(inertias, inertias[1:]):
                assert later <= earlier * (1 + 1e-12) + 1e-9

    def test_empty_clusters_repaired(self):
        # Both extra centroids start on top of each other far from the data, so
        # every point initially lands in one cluster.
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        start = np.array([[5.0], [500.0], [500.0]])
        result = lloyd(X, start, KmeansConfig(k=3, max_iters=50))
        assert set(result.assignments) == {0, 1, 2}

    def test_dimension_mismatch(self, rng):
        X = rng.normal(size=(10, 3))
        message = r"^centroids of shape \(2, 4\) do not match data \(10, 3\)$"
        with pytest.raises(Error, match=message):
            lloyd(X, np.zeros((2, 4)), KmeansConfig(k=2))

    def test_tol_zero_stops_at_fixed_point(self, survey_dataset):
        X = survey_dataset.feature_matrix("movies")
        start = init_kmeanspp(X, 16, seed=0)
        exact = lloyd(X, start, KmeansConfig(k=16, tol=0.0))
        default = lloyd(X, start, KmeansConfig(k=16))
        assert exact.iterations < DEFAULT_MAX_ITERS // 4
        assert np.array_equal(exact.assignments, default.assignments)
        assert exact.inertia == default.inertia


class TestLloydMatchesOracle:
    """The library's Lloyd step must reproduce the plain ``np.add.at``
    reference bit for bit, not just to within rounding."""

    def _check(self, X, start):
        config = KmeansConfig(k=start.shape[0])
        result = lloyd(X, start, config)
        labels, centroids, inertia, iterations = lloyd_oracle(
            X, start, config.max_iters, config.tol
        )
        assert np.array_equal(result.assignments, labels)
        assert np.array_equal(result.centroids, centroids)
        assert result.inertia == inertia
        assert result.iterations == iterations
        return result

    def test_integer_ratings(self, survey_dataset):
        X = survey_dataset.feature_matrix("movies")
        assert np.array_equal(X, np.round(X))
        for seed in range(3):
            self._check(X, init_kmeanspp(X, 16, seed))

    def test_pca_projected_floats(self, survey_dataset):
        X = survey_dataset.feature_matrix("music")
        Z = pca.project(pca.fit_pca(X, 2), X)
        for seed in range(3):
            self._check(Z, init_kmeanspp(Z, 16, seed))

    def test_empty_cluster_repair(self, survey_dataset):
        # Every centroid starts on the same row, so the first assignment puts
        # all points in cluster 0 and the other 15 clusters must be repaired.
        X = survey_dataset.feature_matrix("video-games")
        result = self._check(X, np.repeat(X[:1], 16, axis=0))
        assert len(set(result.assignments)) == 16


def bound_edge(n, d, scale, seed=0):
    """Random integer (n, d) data in [-scale, scale] with both extremes present."""
    X = np.random.default_rng(seed).integers(-scale, scale + 1, size=(n, d)).astype(np.float64)
    X[0, 0], X[-1, -1] = scale, -scale
    return X


# (n, d, max|x|) just inside and just past each float32 bound:
# max|x| ** 2 * d < 2**24 and max|x| * n < 2**24.
INSIDE_BOUNDS = [(50, 4, 2047), (4097, 1, 4095)]
PAST_BOUNDS = [(50, 4, 2048), (50, 1, 4096), (4098, 1, 4095)]


class TestExactFloat32:
    """On small integer data kmeans++ and the centroid sums take float32
    products; they must give the float64 route's bits exactly."""

    @pytest.fixture(scope="class")
    def survey7(self):
        return ingest.generate_synthetic(ingest.SynthConfig(seed=7))

    @pytest.mark.parametrize("category", [*CATEGORY_ORDER, None], ids=[*CATEGORY_ORDER, "all"])
    def test_kmeanspp_matches_oracle_on_survey(self, survey7, category):
        X = survey7.feature_matrix(category)
        assert kmeans._exact_float32(X) is not None
        for seed in range(50):
            assert np.array_equal(init_kmeanspp(X, 16, seed), kmeanspp_oracle(X, 16, seed))

    def test_kmeanspp_duplicates_take_uniform_fallback(self):
        # Three distinct rows and k = 6: once all three are chosen, every
        # distance is zero and the rest are drawn uniformly.
        X = np.repeat([[0.0, 1.0], [3.0, 3.0], [6.0, 0.0]], 4, axis=0)
        assert kmeans._exact_float32(X) is not None
        for seed in range(20):
            centroids = init_kmeanspp(X, 6, seed)
            assert np.array_equal(centroids, kmeanspp_oracle(X, 6, seed))
            assert len(np.unique(centroids, axis=0)) == 3

    @pytest.mark.parametrize("n, d, scale", INSIDE_BOUNDS + PAST_BOUNDS)
    def test_kmeanspp_at_bounds(self, n, d, scale):
        X = bound_edge(n, d, scale)
        exact = kmeans._exact_float32(X)
        assert (exact is not None) == ((n, d, scale) in INSIDE_BOUNDS)
        for seed in range(5):
            assert np.array_equal(init_kmeanspp(X, 8, seed), kmeanspp_oracle(X, 8, seed))

    def _both_paths(self, X, labels, k, fallback):
        counts = np.bincount(labels, minlength=k)
        general = kmeans._mean_update(X, labels, counts, fallback)
        exact = kmeans._mean_update(X, labels, counts, fallback, X32=kmeans._exact_float32(X))
        sums = np.zeros((k, X.shape[1]))
        np.add.at(sums, labels, X)
        expected = fallback.copy()
        expected[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        assert np.array_equal(general, expected)
        assert np.array_equal(exact, expected)
        return exact

    def test_mean_update_with_empty_clusters(self, survey7):
        X = survey7.feature_matrix("music")
        labels = np.random.default_rng(3).choice([0, 2, 5], size=X.shape[0])
        fallback = np.arange(6 * X.shape[1], dtype=np.float64).reshape(6, -1) / 7.0
        means = self._both_paths(X, labels, 6, fallback)
        assert np.array_equal(means[[1, 3, 4]], fallback[[1, 3, 4]])

    def test_mean_update_at_row_sum_bound(self):
        # 4097 rows of 4095 add up to 2**24 - 1, the largest sum that
        # max|x| * n < 2**24 admits.
        n, scale = 4097, 4095
        X = np.full((n, 1), float(scale))
        means = self._both_paths(X, np.zeros(n, np.int64), 2, np.zeros((2, 1)))
        assert means[0, 0] == scale
        X[:10] = -scale
        labels = np.zeros(n, np.int64)
        labels[:10] = 2
        means = self._both_paths(X, labels, 4, np.full((4, 1), 0.25))
        assert means[0, 0] == scale and means[2, 0] == -scale

    @pytest.mark.parametrize("n, d, scale", INSIDE_BOUNDS + PAST_BOUNDS)
    def test_lloyd_matches_oracle_at_bounds(self, n, d, scale):
        X = bound_edge(n, d, scale, seed=1)
        start = init_kmeanspp(X, 6, 0)
        config = KmeansConfig(k=6)
        result = lloyd(X, start, config)
        labels, centroids, inertia, iterations = lloyd_oracle(X, start, config.max_iters, config.tol)
        assert np.array_equal(result.assignments, labels)
        assert np.array_equal(result.centroids, centroids)
        assert (result.inertia, result.iterations) == (inertia, iterations)


class TestFit:
    def test_fit_deterministic_per_seed(self, rng):
        X = rng.normal(size=(50, 5))
        config = KmeansConfig(k=4, seed=77, restarts=3)
        a = fit(X, config)
        b = fit(X, config)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia
        assert a.iterations == b.iterations

    def test_more_restarts_never_hurt(self, rng):
        # Restart seeds are a prefix-stable stream, so best-of-10 includes
        # best-of-1's run.
        X = rng.normal(size=(60, 4))
        one = fit(X, KmeansConfig(k=6, seed=5, restarts=1, init=INIT_RANDOM))
        ten = fit(X, KmeansConfig(k=6, seed=5, restarts=10, init=INIT_RANDOM))
        assert ten.inertia <= one.inertia

    def test_recovers_planted_blobs(self):
        X, labels = hypercube_blobs(points_per_blob=20, noise=0.3, seed=4)
        result = fit(X, KmeansConfig(k=16, seed=0, restarts=10))
        # Every blob should map to exactly one cluster.
        mapping = {}
        for blob, cluster in zip(labels, result.assignments):
            mapping.setdefault(blob, set()).add(cluster)
        assert all(len(v) == 1 for v in mapping.values())
        assert len({next(iter(v)) for v in mapping.values()}) == 16

    def test_smart_seeding_beats_random_on_planted_blobs(self):
        X, _ = hypercube_blobs(points_per_blob=10, noise=0.5, seed=8)
        smart, plain = [], []
        for seed in range(30):
            smart.append(
                fit(X, KmeansConfig(k=16, seed=seed, restarts=1)).inertia
            )
            plain.append(
                fit(X, KmeansConfig(k=16, seed=seed, restarts=1, init=INIT_RANDOM)).inertia
            )
        assert np.mean(smart) <= np.mean(plain)

    def test_too_few_points(self, rng):
        with pytest.raises(Error, match="^cannot seed 5 centroids from 3 points$"):
            fit(rng.normal(size=(3, 2)), KmeansConfig(k=5))

    def test_elapsed_positive(self, rng):
        result = fit(rng.normal(size=(20, 3)), KmeansConfig(k=2, seed=0, restarts=1))
        assert result.elapsed > 0.0


class TestSerialization:
    def _result(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 9.0], [9.0, 10.0]])
        return fit(X, KmeansConfig(k=2, seed=3, restarts=2))

    def test_json_document(self):
        result = self._result()
        doc = json.loads(kmeans.result_to_json(result, "pca-based"))
        assert set(doc) == {
            "method", "k", "inertia", "iterations", "elapsed_seconds", "assignments",
        }
        assert doc["k"] == 2
        assert doc["method"] == "pca-based"
        assert doc["assignments"] == [int(a) for a in result.assignments]
        assert doc["inertia"] == result.inertia

    def test_assignments_csv(self):
        result = self._result()
        text = kmeans.assignments_to_csv(result, ["a-1", "b-2", "c-3", "d-4"])
        lines = text.splitlines()
        assert lines[0] == "respondent_id,cluster"
        assert len(lines) == 5
        assert lines[1].startswith("a-1,")

    def test_assignments_csv_length_check(self):
        with pytest.raises(Error, match="^1 ids for 4 assignments$"):
            kmeans.assignments_to_csv(self._result(), ["only-one"])

    def test_result_k_property(self):
        result = self._result()
        assert isinstance(result, ClusteringResult)
        assert result.k == 2
