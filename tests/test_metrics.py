import json

import numpy as np
import pytest

from typetaste import kmeans, metrics, pca
from typetaste.errors import (
    EmptyInput,
    Error,
    LengthMismatch,
    SingleClusterOnly,
    TooFewSamples,
)
from typetaste.metrics import (
    ContingencyTable,
    adjusted_mutual_information,
    adjusted_rand,
    class_entropy,
    cluster_entropy,
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
        assert table.counts.tolist() == [[1, 1], [1, 0], [0, 1]]
        assert table.row_sums.tolist() == [2, 1, 1]
        assert table.col_sums.tolist() == [2, 2]
        assert table.n == 4

    def test_numpy_and_python_labels_mix(self):
        table = contingency(np.array([0, 0, 1]), [np.int64(5), 5, "x"])
        assert table.n == 3
        assert table.counts.shape == (2, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            contingency([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            contingency([], [])
        with pytest.raises(EmptyInput):
            ContingencyTable(np.zeros((2, 2), dtype=int))

    def test_negative_rejected(self):
        with pytest.raises(Error):
            ContingencyTable(np.array([[1, -1], [0, 2]]))


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
            assert mi <= min(class_entropy(table), cluster_entropy(table)) + 1e-12

    def test_v_equals_mi_normalized_by_entropy_sum(self, rng):
        for _ in range(300):
            a, b = random_label_pair(rng)
            table = contingency(a, b)
            _, _, v = homogeneity_completeness_v(table)
            denominator = class_entropy(table) + cluster_entropy(table)
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
        with pytest.raises(TooFewSamples):
            adjusted_rand(contingency([1], [1]))


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

    def test_nonnegative_and_below_mi_bound(self, rng):
        for _ in range(100):
            a, b = random_label_pair(rng)
            table = contingency(a, b)
            emi = expected_mutual_information(table)
            assert emi >= 0.0
            assert emi <= min(class_entropy(table), cluster_entropy(table)) + 1e-9


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
        with pytest.raises(TooFewSamples):
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
        with pytest.raises(SingleClusterOnly):
            silhouette(rng.normal(size=(5, 2)), [3, 3, 3, 3, 3])

    def test_length_mismatch(self, rng):
        with pytest.raises(LengthMismatch):
            silhouette(rng.normal(size=(5, 2)), [0, 1])


class TestEvaluate:
    def _fit(self, rng):
        X = np.vstack(
            [rng.normal(0, 0.3, size=(10, 3)), rng.normal(8, 0.3, size=(10, 3))]
        )
        labels = ["a"] * 10 + ["b"] * 10
        result = kmeans.fit(X, kmeans.KmeansConfig(k=2, seed=1, restarts=2))
        return labels, result

    def test_separable_data_scores_perfect(self, rng):
        labels, result = self._fit(rng)
        report = evaluate(labels, result)
        assert report.method == "kmeans++"
        assert report.homogeneity == pytest.approx(1.0, abs=1e-12)
        assert report.ari == 1.0
        assert report.silhouette > 0.9
        assert report.elapsed == result.elapsed

    def test_length_mismatch_rejected(self, rng):
        labels, result = self._fit(rng)
        with pytest.raises(LengthMismatch):
            evaluate(labels[:-1], result)


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

    def test_unknown_method_rejected(self, small_dataset):
        with pytest.raises(Error):
            run_method_comparison(small_dataset, k=2, methods=("ward",))

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
