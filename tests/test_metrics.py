import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from typetaste import ingest, kmeans, metrics, pca
from typetaste.domain import ALL_TYPES
from typetaste.errors import Error
from typetaste.metrics import (
    adjusted_mutual_information,
    adjusted_rand,
    comparison_to_csv,
    comparison_to_json,
    contingency,
    evaluate,
    expected_mutual_information,
    homogeneity_completeness_v,
    mutual_information,
    run_method_comparison,
    silhouette,
    silhouette_samples,
)

from oracles import (
    adjusted_rand_oracle,
    contingency_oracle,
    distance_sums_oracle,
    entropy_oracle,
    expected_mi_gammaln_oracle,
    expected_mi_permutation_oracle,
    hcv_oracle,
    mutual_information_oracle,
    silhouette_oracle,
)


def random_label_pair(rng, n_max=8):
    n = int(rng.integers(2, n_max + 1))
    a = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n).tolist()
    b = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n).tolist()
    return a, b


class TestContingency:
    def test_counts_and_first_appearance_order(self):
        table = contingency(["b", "a", "b", "c"], [1, 1, 2, 2])
        # rows follow first appearance: b, a, c; cols: 1, 2
        assert table.tolist() == [[1, 1], [1, 0], [0, 1]]
        assert table.dtype == np.int64

    def test_numpy_and_python_labels_mix(self):
        table = contingency(np.array([0, 0, 1]), [np.int64(5), 5, "x"])
        assert table.sum() == 3
        assert table.shape == (2, 2)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda x: x.tolist(),
            lambda x: x.astype(np.int64),
            lambda x: x.astype(np.int8),
            lambda x: [f"label{v}" for v in x.tolist()],
            lambda x: tuple(ALL_TYPES[v] for v in x.tolist()),
        ],
        ids=["python-int", "int64", "int8", "str", "mbti"],
    )
    def test_matches_dict_oracle(self, rng, convert):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            a = convert(rng.integers(0, int(rng.integers(1, 17)), size=n))
            b = convert(rng.integers(0, int(rng.integers(1, 17)), size=n))
            table = contingency(a, b)
            assert table.dtype == np.int64
            assert np.array_equal(table, contingency_oracle(a, b))

    def test_length_mismatch(self):
        with pytest.raises(Error, match="^label sequences differ in length: 2 vs 1$"):
            contingency([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(Error, match="^cannot build a contingency table from zero labels$"):
            contingency([], [])


class TestEntropyScores:
    def test_perfect_relabeling_scores_one(self):
        table = contingency([0, 0, 1, 1, 2], [7, 7, 3, 3, 9])
        h, c, v = homogeneity_completeness_v(table)
        assert h == pytest.approx(1.0, abs=1e-15)
        assert c == pytest.approx(1.0, abs=1e-15)
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_single_class_is_trivially_homogeneous(self):
        table = contingency([1, 1, 1, 1], [0, 0, 1, 1])
        h, c, v = homogeneity_completeness_v(table)
        assert h == 1.0
        assert c == 0.0
        assert v == 0.0

    def test_single_cluster_is_trivially_complete(self):
        table = contingency([0, 0, 1, 1], [5, 5, 5, 5])
        h, c, v = homogeneity_completeness_v(table)
        assert h == 0.0
        assert c == 1.0
        assert v == 0.0

    def test_matches_conditional_entropy_oracle(self, rng):
        for _ in range(300):
            a, b = random_label_pair(rng)
            h, c, v = homogeneity_completeness_v(contingency(a, b))
            oh, oc, ov = hcv_oracle(a, b)
            assert abs(h - oh) < 1e-9
            assert abs(c - oc) < 1e-9
            assert abs(v - ov) < 1e-9

    def test_mutual_information_matches_oracle(self, rng):
        for _ in range(300):
            a, b = random_label_pair(rng)
            mi = mutual_information(contingency(a, b))
            assert abs(mi - mutual_information_oracle(a, b)) < 1e-9

    def test_mi_bounded_by_entropies(self, rng):
        for _ in range(200):
            a, b = random_label_pair(rng)
            table = contingency(a, b)
            mi = mutual_information(table)
            assert mi >= 0.0
            assert mi <= min(entropy_oracle(a), entropy_oracle(b)) + 1e-12

    def test_v_equals_mi_normalized_by_entropy_sum(self, rng):
        for _ in range(300):
            a, b = random_label_pair(rng)
            table = contingency(a, b)
            _, _, v = homogeneity_completeness_v(table)
            denominator = entropy_oracle(a) + entropy_oracle(b)
            if denominator == 0.0:
                continue
            assert abs(v - 2.0 * mutual_information(table) / denominator) < 1e-12


class TestAdjustedRand:
    def test_crossing_pairs_score_minus_half(self):
        assert adjusted_rand(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == -0.5

    def test_identical_partitions_score_exactly_one(self, rng):
        for _ in range(20):
            labels = rng.integers(0, 4, size=int(rng.integers(2, 12))).tolist()
            relabeled = [chr(97 + v) for v in labels]
            assert adjusted_rand(contingency(labels, relabeled)) == 1.0

    def test_degenerate_single_groups_score_one(self):
        assert adjusted_rand(contingency([0, 0, 0], [1, 1, 1])) == 1.0

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(300):
            a, b = random_label_pair(rng)
            ari = adjusted_rand(contingency(a, b))
            assert abs(ari - adjusted_rand_oracle(a, b)) < 1e-9

    def test_independent_labelings_score_near_zero(self):
        rng = np.random.default_rng(6)
        values = [
            adjusted_rand(
                contingency(
                    rng.integers(0, 4, size=300).tolist(),
                    rng.integers(0, 4, size=300).tolist(),
                )
            )
            for _ in range(20)
        ]
        assert abs(float(np.mean(values))) < 0.02

    def test_needs_two_samples(self):
        with pytest.raises(Error, match="^adjusted Rand needs at least 2 samples, got 1$"):
            adjusted_rand(contingency([1], [1]))


@pytest.fixture(scope="module")
def seed7_tables() -> list[np.ndarray]:
    """The contingency tables of the ``kmeans++`` and ``random`` fits of a
    default comparison on the seed-7 survey with 10 restarts (n = 1020) and
    on its 4x version with 2 restarts (n = 4080): 20 tables."""
    tables = []
    for scale, restarts in ((1, 10), (4, 2)):
        counts = {t: c * scale for t, c in ingest.SURVEY_TYPE_COUNTS.items()}
        dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=7, frequencies=counts))
        fits = []
        real_fit = kmeans.fit

        def recording_fit(data, config):
            fits.append(real_fit(data, config))
            return fits[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmeans, "fit", recording_fit)
            rows = run_method_comparison(dataset, seed=0, restarts=restarts)
        tables.extend(
            contingency(dataset.type_codes, result.assignments)
            for (_, report), result in zip(rows, fits)
            if report.method != "pca-based"
        )
    return tables


class TestExpectedMutualInformation:
    @pytest.mark.parametrize(
        "a,b",
        [
            ([0, 0, 1], [0, 1, 1]),
            ([0, 1, 2, 0], [1, 1, 0, 0]),
            ([0, 0, 0, 1, 1], [0, 1, 2, 0, 1]),
            ([0, 1, 0, 1, 0, 1], [2, 2, 2, 3, 3, 3]),
            ([0, 0, 0, 0, 1, 1, 2], [0, 1, 0, 1, 0, 1, 0]),
            ([0, 1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0, 0]),
            ([0, 0, 1, 1, 2, 2, 3], [1, 1, 1, 2, 2, 2, 2]),
        ],
    )
    def test_matches_exhaustive_permutation_average(self, a, b):
        emi = expected_mutual_information(contingency(a, b))
        assert abs(emi - expected_mi_permutation_oracle(a, b)) < 1e-6

    def test_single_cluster_has_zero_expectation(self):
        assert expected_mutual_information(contingency([0, 1, 2], [0, 0, 0])) == 0.0

    @pytest.mark.parametrize(
        "table",
        [np.zeros((3, 4), dtype=np.int64), np.array([[0, 0], [0, 5]]), np.array([[5]])],
        ids=["all-zero", "zero-row-and-column", "1x1"],
    )
    def test_degenerate_tables_have_zero_expectation(self, table):
        """A zero marginal gives an empty run of cell counts, so no log(0)
        and no division by n = 0 is taken: numpy raises on either here."""
        with np.errstate(all="raise"):
            assert expected_mutual_information(table) == 0.0

    def test_zero_marginals_add_no_terms(self):
        table = np.array([[2, 3], [1, 4]])
        padded = np.array([[0, 0, 0], [0, 2, 3], [0, 1, 4]])
        assert expected_mutual_information(padded) == expected_mutual_information(table) > 0.0

    def test_symmetric_in_the_two_labelings(self, seed7_tables):
        """The transposed table adds its terms in another order."""
        for table in seed7_tables:
            want = expected_mutual_information(table)
            assert expected_mutual_information(table.T) == pytest.approx(want, rel=1e-11, abs=0)

    def test_nonnegative_and_below_mi_bound(self, rng):
        for _ in range(100):
            a, b = random_label_pair(rng)
            table = contingency(a, b)
            emi = expected_mutual_information(table)
            assert emi >= 0.0
            assert emi <= min(entropy_oracle(a), entropy_oracle(b)) + 1e-9

    def test_matches_gammaln_oracle_at_large_n(self, seed7_tables):
        """The permutation oracle reaches only tiny n; the closed form with
        scipy's ``gammaln`` table checks n = 1020 and 4080."""
        for table in seed7_tables:
            want = expected_mi_gammaln_oracle(table)
            assert expected_mutual_information(table) == pytest.approx(want, rel=1e-11, abs=0)

    @pytest.mark.parametrize("n", [*range(31), 10**6])
    def test_log_factorials_near_gammaln(self, n):
        """Within 1e-14 relative of scipy's ``gammaln`` (4 ulps at most when
        measured up to n = 10**6), and exactly 0 at 0! = 1! = 1."""
        got = metrics._log_factorials(n)
        assert got.dtype == np.float64
        assert got.shape == (n + 1,)
        assert (got[:2] == 0.0).all()
        want = gammaln(np.arange(n + 1) + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestAdjustedMutualInformation:
    def test_perfect_match_scores_one(self):
        table = contingency([0, 0, 1, 1, 2, 2], [5, 5, 9, 9, 7, 7])
        assert adjusted_mutual_information(table) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_both_single_scores_one(self):
        assert adjusted_mutual_information(contingency([0, 0], [1, 1])) == 1.0

    def test_random_labelings_center_on_zero(self):
        rng = np.random.default_rng(17)
        values = []
        for _ in range(200):
            a = rng.integers(0, 3, size=60).tolist()
            b = rng.integers(0, 4, size=60).tolist()
            values.append(adjusted_mutual_information(contingency(a, b)))
        assert abs(float(np.mean(values))) < 0.02

    def test_never_exceeds_one(self, rng):
        for _ in range(200):
            a, b = random_label_pair(rng)
            assert adjusted_mutual_information(contingency(a, b)) <= 1.0 + 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(Error, match="^adjusted MI needs at least 2 samples, got 1$"):
            adjusted_mutual_information(contingency([0], [0]))


class TestKnownScores:
    """Fixed label pair with externally computed scores, as a drift tripwire."""

    A = [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    B = [1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 1, 3, 3, 3, 2, 2]

    def test_mutual_information(self):
        assert mutual_information(contingency(self.A, self.B)) == pytest.approx(
            0.41022, abs=1e-5
        )

    def test_expected_mutual_information(self):
        assert expected_mutual_information(contingency(self.A, self.B)) == pytest.approx(
            0.15042, abs=1e-5
        )

    def test_adjusted_mutual_information(self):
        assert adjusted_mutual_information(contingency(self.A, self.B)) == pytest.approx(
            0.27502, abs=1e-5
        )


# The smallest n whose distance matrix is built in two row blocks.
SPLIT = math.isqrt(2 * metrics._BLOCK_ENTRIES)


def _members(labels):
    labels = np.asarray(labels)
    return labels[:, None] == np.unique(labels)[None, :]


def _assert_sums_exact(X, *labelings):
    """One ``_distance_sums`` call shares its blocks across the labelings;
    each labeling's sums must equal the oracle's for that labeling alone."""
    memberships = [_members(labels) for labels in labelings]
    shared = metrics._distance_sums(X, memberships)
    assert len(shared) == len(memberships)
    for sums, members in zip(shared, memberships):
        np.testing.assert_array_equal(sums, distance_sums_oracle(X, members), strict=True)


@pytest.fixture(scope="module")
def movies_ratings() -> np.ndarray:
    """Integer movies ratings of a survey three times the reference size."""
    counts = {t: 3 * c for t, c in ingest.SURVEY_TYPE_COUNTS.items()}
    config = ingest.SynthConfig(seed=31, frequencies=counts)
    return ingest.generate_synthetic(config).feature_matrix("movies").astype(np.float64)


class TestDistanceSums:
    """The row-blocked per-cluster distance sums equal the full ``cdist``
    matrix's, bit for bit, on both the integer and the general path."""

    @staticmethod
    def _data(kind, ratings, n, rng):
        rows = ratings[rng.choice(ratings.shape[0], size=n, replace=False)]
        if kind == "ratings":
            return rows
        if kind == "pca-scores":
            return pca.project(pca.fit_pca(ratings, 2), rows)
        return rng.normal(size=(n, 5)) * 3.0

    def test_split_point(self):
        assert metrics._row_blocks(SPLIT - 1) == [(0, SPLIT - 1)]
        assert len(metrics._row_blocks(SPLIT)) == 2

    @pytest.mark.parametrize("n", [1, 2, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT + 3, 3001])
    def test_row_blocks_cover_rows_in_order(self, n):
        blocks = metrics._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
        rows = [stop - start for start, stop in blocks]
        assert max(rows) - min(rows) <= 1
        assert min(rows) * n >= min(metrics._BLOCK_ENTRIES, n * n)

    @pytest.mark.parametrize("kind", ["ratings", "pca-scores", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT + 3])
    @pytest.mark.parametrize("k", [2, 16])
    def test_matches_cdist_oracle(self, kind, n, k, movies_ratings, rng):
        X = self._data(kind, movies_ratings, n, rng)
        _assert_sums_exact(X, rng.integers(0, k, size=n))

    @pytest.mark.parametrize("kind", ["ratings", "pca-scores", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT + 3])
    @pytest.mark.parametrize("k", [2, 16])
    def test_shared_blocks_match_cdist_oracle(self, kind, n, k, movies_ratings, rng):
        # k + k columns: k = 2 gives the smallest block products.
        X = self._data(kind, movies_ratings, n, rng)
        _assert_sums_exact(X, rng.integers(0, k, size=n), rng.integers(0, k, size=n))

    @pytest.mark.parametrize("kind", ["ratings", "pca-scores", "gaussian"])
    @pytest.mark.parametrize(("n", "ks"), [(600, (2, 2)), (500, (3, 3)), (600, (2, 16))])
    def test_shared_blocks_keep_each_labelings_product(self, kind, n, ks, movies_ratings, rng):
        # One product over the memberships side by side gives other bits
        # here: OpenBLAS sums it in another order than each one alone.
        X = self._data(kind, movies_ratings, n, rng)
        _assert_sums_exact(X, *(rng.integers(0, k, size=n) for k in ks))

    @pytest.mark.parametrize("kind", ["ratings", "pca-scores", "gaussian"])
    @pytest.mark.parametrize("k", [2, 16])
    def test_duplicates_and_singletons(self, kind, k, movies_ratings, rng):
        X = self._data(kind, movies_ratings, SPLIT + 40, rng)
        X = np.concatenate([X, X[:30], X[:5]])
        labels = rng.integers(0, k, size=X.shape[0])
        labels[[3, SPLIT, X.shape[0] - 1]] = [k, k + 1, k + 2]
        _assert_sums_exact(X, labels, labels[::-1])
        assert np.count_nonzero(metrics._distance_sums(X, [_members(labels)])[0] == 0.0) >= 3

    def test_integral_input_at_the_exactness_bound(self, rng):
        d = 5
        top = math.isqrt((2**53 - 1) // (4 * d))
        X = rng.choice([top, top - 1, -top, 1 - top], size=(SPLIT + 9, d)).astype(np.float64)
        _assert_sums_exact(X, *rng.integers(0, 4, size=(2, X.shape[0])))

    def test_integral_input_past_the_bound_takes_general_path(self, rng):
        # |x|^2 + |y|^2 - 2 x.y rounds near 2**26: it gives wrong (even NaN)
        # distances between these close points.
        X = (2**26 - rng.integers(0, 8, size=(SPLIT + 9, 5))).astype(np.float64)
        _assert_sums_exact(X, *rng.integers(0, 4, size=(2, X.shape[0])))

    def test_non_finite_input_takes_general_path(self):
        X = np.array([[0.0, 1.0], [np.inf, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        with np.errstate(invalid="ignore"):
            _assert_sums_exact(X, [0, 1, 0, 1])

    @pytest.mark.parametrize("integral", [True, False])
    def test_memory_grows_with_block_not_n_squared(self, integral):
        rng = np.random.default_rng(5)
        n, d = 3000, 21
        X = rng.integers(0, 7, size=(n, d)).astype(np.float64)
        if not integral:
            X += 0.5
        labels = rng.integers(0, 16, size=n)
        tracemalloc.start()
        try:
            silhouette_samples(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The n x n float64 distance matrix alone would be 72 MB.
        assert peak < 16 * 2**20

    def test_shared_blocks_exact_on_two_blas_threads(self):
        # OpenBLAS reads its thread count when it loads, so a child
        # interpreter runs the k + k cases of the split sizes.
        script = (
            "import numpy as np\n"
            "from typetaste import metrics\n"
            "from oracles import distance_sums_oracle\n"
            "rng = np.random.default_rng(7)\n"
            "bad = []\n"
            f"for n in ({SPLIT + 1}, {2 * SPLIT + 3}):\n"
            "    ratings = rng.integers(0, 7, size=(n, 21)).astype(np.float64)\n"
            "    for X in (ratings, rng.normal(size=(n, 2)) * 3.0):\n"
            "        for k in (2, 16):\n"
            "            labelings = rng.integers(0, k, size=(2, n))\n"
            "            ms = [row[:, None] == np.unique(row)[None, :] for row in labelings]\n"
            "            for sums, m in zip(metrics._distance_sums(X, ms), ms):\n"
            "                if not np.array_equal(sums, distance_sums_oracle(X, m)):\n"
            "                    bad.append((n, X.shape[1], k))\n"
            "print(len(bad), bad)\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2"),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = [0, 0, 1, 1]
        score = silhouette(X, labels)
        assert score >= 0.98
        assert abs(score - silhouette_oracle(X, labels)) < 1e-12

    def test_matches_direct_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 60))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            X = rng.normal(size=(n, d)) * 3.0
            labels = rng.integers(0, k, size=n)
            if len(np.unique(labels)) < 2:
                continue
            assert abs(silhouette(X, labels) - silhouette_oracle(X, labels)) < 1e-12

    def test_singletons_score_zero(self):
        X = np.array([[0.0], [5.0], [5.1]])
        values = silhouette_samples(X, [0, 1, 1])
        assert values[0] == 0.0
        assert values[1] > 0.9

    def test_identical_points_score_zero(self):
        X = np.zeros((4, 2))
        assert silhouette(X, [0, 0, 1, 1]) == 0.0

    def test_values_bounded(self, rng):
        X = rng.normal(size=(50, 3))
        labels = rng.integers(0, 4, size=50)
        values = silhouette_samples(X, labels)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_single_cluster_rejected(self, rng):
        with pytest.raises(Error, match="^silhouette needs at least 2 distinct clusters$"):
            silhouette(rng.normal(size=(5, 2)), [3, 3, 3, 3, 3])

    def test_length_mismatch(self, rng):
        with pytest.raises(Error, match="^2 assignments for 5 points$"):
            silhouette(rng.normal(size=(5, 2)), [0, 1])

    @pytest.mark.parametrize("n", [4, 37, SPLIT + 1])
    @pytest.mark.parametrize("integral", [True, False])
    def test_stacked_rows_equal_lone_calls(self, n, integral, rng):
        X = rng.integers(0, 7, size=(n, 6)).astype(np.float64)
        if not integral:
            X += rng.normal(size=X.shape)
        stack = np.stack([rng.integers(0, k, size=n) for k in (2, 3, 16)])
        stack[:, :2] = [0, 1]  # at least two clusters in each row
        values, means = silhouette_samples(X, stack), silhouette(X, stack)
        assert values.shape == (3, n) and means.shape == (3,)
        for row, labels in enumerate(stack):
            assert np.array_equal(values[row], silhouette_samples(X, labels))
            alone = silhouette(X, labels)
            assert isinstance(alone, float) and means[row] == alone
            if n < 100:
                assert abs(means[row] - silhouette_oracle(X, labels)) < 1e-12

    def test_stack_with_one_single_cluster_row_rejected(self, rng):
        with pytest.raises(Error, match="^silhouette needs at least 2 distinct clusters$"):
            silhouette(rng.normal(size=(5, 2)), [[0, 1, 0, 1, 0], [3, 3, 3, 3, 3]])

    def test_stack_of_wrong_width_rejected(self, rng):
        with pytest.raises(Error, match="^4 assignments for 5 points$"):
            silhouette(rng.normal(size=(5, 2)), [[0, 1, 0, 1], [1, 0, 1, 0]])

    def test_empty_stack_rejected(self, rng):
        with pytest.raises(Error, match="^silhouette needs at least one labeling$"):
            silhouette(rng.normal(size=(5, 2)), np.empty((0, 5), dtype=np.int64))


class TestEvaluate:
    def _fit(self, rng):
        X = np.vstack(
            [rng.normal(0, 0.3, size=(10, 3)), rng.normal(8, 0.3, size=(10, 3))]
        )
        labels = ["a"] * 10 + ["b"] * 10
        result = kmeans.fit(X, kmeans.KmeansConfig(k=2, seed=1, restarts=2))
        return labels, X, result

    def test_separable_data_scores_perfect(self, rng):
        labels, X, result = self._fit(rng)
        [report] = evaluate(labels, [("kmeans++", X, result)])
        assert report.method == "kmeans++"
        assert report.homogeneity == pytest.approx(1.0, abs=1e-12)
        assert report.ari == 1.0
        assert report.silhouette > 0.9
        assert report.elapsed == result.elapsed

    def test_length_mismatch_rejected(self, rng):
        labels, X, result = self._fit(rng)
        message = f"^label sequences differ in length: {len(labels) - 1} vs {len(labels)}$"
        with pytest.raises(Error, match=message):
            evaluate(labels[:-1], [("kmeans++", X, result)])

    def test_space_with_nan_is_scored(self, rng):
        labels, X, result = self._fit(rng)
        space = X.copy()
        space[0, 0] = np.nan
        nan_fit = ("kmeans++", space, result)
        reports = evaluate(labels, [nan_fit, nan_fit, ("kmeans++", X, result)])
        assert reports[0] == reports[1]
        assert reports[0].silhouette == silhouette(space, result.assignments)
        assert reports[2].silhouette == silhouette(X, result.assignments)

    def test_type_codes_score_like_types(self, survey_dataset):
        X = survey_dataset.feature_matrix("music")
        fit = ("kmeans++", X, kmeans.fit(X, kmeans.KmeansConfig(k=16, seed=3, restarts=1)))
        by_code = evaluate(survey_dataset.type_codes, [fit])
        by_name = evaluate([ALL_TYPES[c] for c in survey_dataset.type_codes.tolist()], [fit])
        assert by_code == by_name

    def test_same_space_shares_one_silhouette_call(self, survey_dataset, monkeypatch):
        X = survey_dataset.feature_matrix("movies")
        P = pca.project(pca.fit_pca(X, 2), X)
        cells = [
            ("kmeans++", X, kmeans.KmeansConfig(k=16, seed=1, restarts=1)),
            ("random", X, kmeans.KmeansConfig(k=16, init="random", seed=2, restarts=1)),
            ("pca-based", P, kmeans.KmeansConfig(k=16, seed=3, restarts=1)),
            ("kmeans++", X, kmeans.KmeansConfig(k=2, seed=4, restarts=1)),
            ("pca-based", P, kmeans.KmeansConfig(k=16, seed=5, restarts=1)),
        ]
        fits = [(method, space, kmeans.fit(space, config)) for method, space, config in cells]
        alone = [silhouette(space, result.assignments) for _, space, result in fits]
        calls = []
        real_silhouette = metrics.silhouette

        def counting_silhouette(data, assignments):
            calls.append(np.shape(assignments))
            return real_silhouette(data, assignments)

        monkeypatch.setattr(metrics, "silhouette", counting_silhouette)
        reports = evaluate(survey_dataset.type_codes, fits)
        assert calls == [(3, X.shape[0]), (2, X.shape[0])]
        assert [r.silhouette for r in reports] == alone
        assert [r.method for r in reports] == [method for method, _, _ in cells]

    def test_equal_but_distinct_spaces_scored_apart(self, survey_dataset, monkeypatch):
        X = survey_dataset.feature_matrix("music")
        result = kmeans.fit(X, kmeans.KmeansConfig(k=16, seed=1, restarts=1))
        calls = []
        real_silhouette = metrics.silhouette

        def counting_silhouette(data, assignments):
            calls.append(np.shape(assignments))
            return real_silhouette(data, assignments)

        monkeypatch.setattr(metrics, "silhouette", counting_silhouette)
        reports = evaluate(
            survey_dataset.type_codes, [("kmeans++", X, result), ("kmeans++", X.copy(), result)]
        )
        assert calls == [(1, X.shape[0]), (1, X.shape[0])]
        assert reports[0] == reports[1]


class TestMethodComparison:
    def test_row_grid_and_determinism(self, small_dataset):
        kwargs = dict(
            k=4,
            methods=("kmeans++", "random", "pca-based"),
            categories=("fiction-books", "music"),
            seed=5,
            restarts=2,
        )
        rows = run_method_comparison(small_dataset, **kwargs)
        assert [(cat, r.method) for cat, r in rows] == [
            ("fiction-books", "kmeans++"),
            ("fiction-books", "random"),
            ("fiction-books", "pca-based"),
            ("music", "kmeans++"),
            ("music", "random"),
            ("music", "pca-based"),
        ]
        again = run_method_comparison(small_dataset, **kwargs)
        for (_, first), (_, second) in zip(rows, again):
            assert first.homogeneity == second.homogeneity
            assert first.ari == second.ari
            assert first.ami == second.ami
            assert first.silhouette == second.silhouette

    def test_pca_fitted_once_per_reduced_cell(self, small_dataset, monkeypatch):
        fits = []
        real_fit_pca = pca.fit_pca

        def counting_fit_pca(*args, **kwargs):
            fits.append(args)
            return real_fit_pca(*args, **kwargs)

        monkeypatch.setattr(pca, "fit_pca", counting_fit_pca)
        run_method_comparison(
            small_dataset, k=3, categories=("movies", "music"), seed=2, restarts=2
        )
        assert len(fits) == 2  # one per pca-based cell

    def test_silhouettes_equal_lone_calls(self, survey_dataset, monkeypatch):
        fits = []
        real_fit = kmeans.fit

        def recording_fit(data, config):
            fits.append((data, real_fit(data, config)))
            return fits[-1][1]

        monkeypatch.setattr(kmeans, "fit", recording_fit)
        rows = run_method_comparison(
            survey_dataset,
            k=16,
            methods=("kmeans++", "random", "pca"),
            categories=("movies", "music"),
            seed=8,
            restarts=1,
        )
        assert len(rows) == len(fits) == 6
        assert [r.method for _, r in rows] == ["kmeans++", "random", "pca-based"] * 2
        for (category, report), (data, result) in zip(rows, fits):
            X = survey_dataset.feature_matrix(category)
            if report.method == "pca-based":
                assert np.array_equal(data, pca.project(pca.fit_pca(X, 2), X))
            else:
                assert np.array_equal(data, X)
            assert report.silhouette == silhouette(data, result.assignments)

    def test_unknown_method_rejected(self, small_dataset):
        with pytest.raises(Error):
            run_method_comparison(small_dataset, k=2, methods=("ward",))

    @pytest.mark.parametrize(
        "categories, message",
        [
            (("movies", "poetry"), "unknown category: 'poetry'"),
            (("movies", "music", "movies"), "repeated category: 'movies'"),
        ],
        ids=["unknown", "repeated"],
    )
    def test_bad_category_rejected_before_any_fit(
        self, small_dataset, monkeypatch, categories, message
    ):
        fits = []
        monkeypatch.setattr(kmeans, "fit", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(Error, match=f"^{message}$"):
            run_method_comparison(small_dataset, k=2, categories=categories)
        assert fits == []

    @pytest.mark.parametrize(
        "methods, message",
        [
            (("kmeans++", "ward"), r"unknown method 'ward'; expected one of \("),
            (("pca", "random", "pca-based"), r"repeated method: 'pca-based'$"),
            (("kmeans++", "kmeans++"), r"repeated method: 'kmeans\+\+'$"),
        ],
        ids=["unknown", "alias-repeated", "repeated"],
    )
    def test_bad_method_rejected_before_any_fit(
        self, small_dataset, monkeypatch, methods, message
    ):
        fits = []
        monkeypatch.setattr(kmeans, "fit", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(pca, "fit_pca", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(Error, match=f"^{message}"):
            run_method_comparison(small_dataset, k=2, methods=methods)
        assert fits == []

    def test_csv_layout(self, small_dataset):
        rows = run_method_comparison(
            small_dataset, k=3, categories=("movies",), seed=2, restarts=2
        )
        text = comparison_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "method,time,homo,compl,v-meas,ARI,AMI,Silhouette"
        assert lines[1] == "# category=movies"
        assert len(lines) == 5
        for line in lines[2:]:
            cells = line.split(",")
            assert len(cells) == 8
            for cell in cells[1:]:
                float(cell)  # numeric,3-decimal short form

    def test_csv_three_decimal_formatting(self):
        report = metrics.EvaluationReport(
            method="kmeans++",
            elapsed=0.5801,
            homogeneity=1.0,
            completeness=0.07849,
            v_measure=0.0,
            ari=-0.5,
            ami=0.123456,
            silhouette=0.9999,
        )
        text = comparison_to_csv([("music", report)])
        assert text.splitlines()[2] == "kmeans++,0.58,1,0.078,0,-0.5,0.123,1"

    def test_json_full_precision_and_keys(self, small_dataset):
        rows = run_method_comparison(
            small_dataset, k=3, categories=("movies",), seed=2, restarts=2
        )
        doc = json.loads(comparison_to_json(rows, {"k": 3, "seed": 2}))
        assert doc["metadata"] == {"k": 3, "seed": 2}
        assert list(doc["categories"]) == ["movies"]
        entries = doc["categories"]["movies"]
        assert len(entries) == 3
        for entry, (_, report) in zip(entries, rows):
            assert set(entry) == {
                "method", "time", "homo", "compl", "v-meas", "ARI", "AMI", "Silhouette",
            }
            assert entry["homo"] == report.homogeneity
            assert entry["Silhouette"] == report.silhouette
