import numpy as np
import pytest

from oracles import pair_table_oracle
from typetaste import pca
from typetaste.analysis import (
    inclination,
    pair_rating_table,
    pair_table_to_csv,
    scatter_export,
    scatter_to_csv,
)
from typetaste.domain import Dataset, MbtiType, SurveyRecord, default_catalog
from typetaste.errors import (
    DimensionMismatch,
    InvalidMbtiCode,
    LengthMismatch,
    UnknownGenre,
)


@pytest.fixture(scope="module")
def pair_dataset():
    """Hand-built dataset with known Psychology / Religion & Spirituality cells."""
    cat = default_catalog()
    psych = cat.index("Psychology")
    relig = cat.index("Religion & Spirituality")

    def rec(rid, mbti, a, b):
        ratings = [3] * len(cat)
        ratings[psych] = a
        ratings[relig] = b
        return SurveyRecord(rid, mbti, ratings)

    records = (
        rec("i-1", "intp", 6, 2),
        rec("i-2", "intp", 5, 2),
        rec("i-3", "intp", 5, 0),
        rec("i-4", "intp", 0, 4),
        rec("e-1", "enfj", 1, 6),
    )
    return Dataset(cat, records)


class TestPairRatingTable:
    def test_matches_record_by_record_tally(self, survey_dataset):
        cat = survey_dataset.catalog
        for t, a, b in [
            (MbtiType.INTP, "Psychology", "Religion & Spirituality"),
            (MbtiType.ESFJ, "music_03", "movies_20"),
            (MbtiType.INFJ, "games_10", "fiction_00"),
        ]:
            table = pair_rating_table(survey_dataset, t, a, b)
            expected = pair_table_oracle(survey_dataset.records, t, cat.index(a), cat.index(b))
            assert np.array_equal(table.counts, expected)

    def test_cells_and_total(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        assert table.total == 4  # only the intp respondents
        assert table.counts[6, 2] == 1
        assert table.counts[5, 2] == 1
        assert table.counts[5, 0] == 1
        assert table.counts[0, 4] == 1
        assert table.counts.sum() == 4

    def test_marginals(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        assert table.marginal_a.tolist() == [1, 0, 0, 0, 0, 2, 1]
        assert table.marginal_b.tolist() == [1, 0, 2, 0, 1, 0, 0]

    def test_type_case_insensitive(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "INTP", "Psychology", "Religion & Spirituality"
        )
        assert table.mbti is MbtiType.INTP

    def test_absent_type_gives_zero_table(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "esfj", "Psychology", "Religion & Spirituality"
        )
        assert table.total == 0

    def test_unknown_genre_rejected(self, pair_dataset):
        with pytest.raises(UnknownGenre):
            pair_rating_table(pair_dataset, "intp", "Psychology", "Alchemy")

    def test_unknown_type_rejected(self, pair_dataset):
        with pytest.raises(InvalidMbtiCode):
            pair_rating_table(pair_dataset, "wxyz", "Psychology", "Religion & Spirituality")

    def test_csv_layout(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        lines = pair_table_to_csv(table).splitlines()
        assert lines[0] == "# type=intp"
        assert lines[1] == "# genre_a=Psychology"
        assert lines[2] == "# genre_b=Religion & Spirituality"
        assert lines[3] == "b=0,b=1,b=2,b=3,b=4,b=5,b=6"
        assert len(lines) == 4 + 7
        parsed = [[int(x) for x in line.split(",")] for line in lines[4:]]
        assert np.array_equal(np.array(parsed), table.counts)


class TestInclination:
    def test_means_and_shares_exclude_no_experience(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        summary = inclination(table)
        # Psychology: ratings 6, 5, 5 among raters (the 0 drops out).
        assert summary.a.raters == 3
        assert summary.a.mean == pytest.approx(16 / 3)
        assert summary.a.enjoyment_share == pytest.approx(1.0)
        # Religion & Spirituality: ratings 2, 2, 4.
        assert summary.b.raters == 3
        assert summary.b.mean == pytest.approx(8 / 3)
        assert summary.b.enjoyment_share == pytest.approx(1 / 3)
        assert summary.leaning == "Psychology"

    def test_no_raters_yields_none(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "esfj", "Psychology", "Religion & Spirituality"
        )
        summary = inclination(table)
        assert summary.a.mean is None
        assert summary.a.enjoyment_share is None
        assert summary.a.raters == 0
        assert summary.leaning is None


class TestScatterExport:
    def test_rows_without_clusters(self, rng):
        Z = rng.normal(size=(5, 2))
        rows = scatter_export(Z, ["intp"] * 5)
        assert len(rows) == 5
        assert all(r.cluster is None and not r.is_centroid for r in rows)
        assert rows[0].coords == tuple(Z[0])

    def test_centroid_rows_at_cluster_means(self, rng):
        Z = rng.normal(size=(6, 3))
        assignments = [0, 0, 1, 1, 1, 0]
        rows = scatter_export(Z, ["intp"] * 6, assignments)
        assert len(rows) == 8
        centroids = [r for r in rows if r.is_centroid]
        assert len(centroids) == 2
        expected0 = Z[[0, 1, 5]].mean(axis=0)
        got0 = next(r for r in centroids if r.cluster == 0)
        assert np.allclose(got0.coords, expected0, atol=1e-15)
        assert got0.mbti == ""

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            scatter_export(rng.normal(size=(4, 4)), ["intp"] * 4)
        with pytest.raises(DimensionMismatch):
            scatter_export(rng.normal(size=4), ["intp"] * 4)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(LengthMismatch):
            scatter_export(rng.normal(size=(4, 2)), ["intp"] * 3)
        with pytest.raises(LengthMismatch):
            scatter_export(rng.normal(size=(4, 2)), ["intp"] * 4, [0, 1])

    def test_csv_layout_2d(self, rng):
        Z = rng.normal(size=(3, 2))
        text = scatter_to_csv(scatter_export(Z, ["intp", "enfj", "intp"], [0, 1, 0]))
        lines = text.splitlines()
        assert lines[0] == "pc1,pc2,mbti,cluster,is_centroid"
        assert len(lines) == 1 + 3 + 2
        assert lines[1].endswith(",intp,0,0")
        assert lines[-1].split(",")[-1] == "1"

    def test_csv_layout_3d_header(self, rng):
        Z = rng.normal(size=(2, 3))
        text = scatter_to_csv(scatter_export(Z, ["intp", "intp"]))
        assert text.splitlines()[0] == "pc1,pc2,pc3,mbti,cluster,is_centroid"

    def test_pipeline_from_pca(self, small_dataset):
        X = small_dataset.feature_matrix()
        model = pca.fit_pca(X, 2)
        Z = pca.project(model, X)
        rows = scatter_export(Z, small_dataset.types)
        assert len(rows) == len(small_dataset)
        assert {r.mbti for r in rows} == {t.value for t in set(small_dataset.types)}
