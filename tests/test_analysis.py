import numpy as np
import pytest

from oracles import pair_table_oracle
from typetaste import pca
from typetaste.analysis import (
    inclination,
    pair_rating_table,
    pair_table_to_csv,
    scatter_to_csv,
)
from typetaste.domain import TYPE_INDEX, Dataset, MbtiType, SurveyRecord, default_catalog
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


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


class TestScatterExport:
    INTP, ENFJ = TYPE_INDEX["intp"], TYPE_INDEX["enfj"]

    def test_rows_without_clusters(self, rng):
        Z = rng.normal(size=(5, 2))
        rows = _csv_rows(scatter_to_csv(Z, np.full(5, self.INTP)))
        assert len(rows) == 5
        assert all(r[2:] == ["intp", "", "0"] for r in rows)
        assert [float(v) for v in rows[0][:2]] == Z[0].tolist()

    def test_centroid_rows_at_cluster_means(self, rng):
        Z = rng.normal(size=(6, 3))
        assignments = [0, 0, 1, 1, 1, 0]
        rows = _csv_rows(scatter_to_csv(Z, np.full(6, self.INTP), assignments))
        assert len(rows) == 8
        assert [r[-2] for r in rows[:6]] == ["0", "0", "1", "1", "1", "0"]
        centroids = [r for r in rows if r[-1] == "1"]
        assert rows[6:] == centroids
        assert [r[-3:] for r in centroids] == [["", "0", "1"], ["", "1", "1"]]
        expected0 = Z[[0, 1, 5]].mean(axis=0)
        assert [float(v) for v in centroids[0][:3]] == expected0.tolist()

    def test_types_filter_keeps_centroids(self, rng):
        Z = rng.normal(size=(4, 2))
        codes = [self.INTP, self.ENFJ, self.ENFJ, self.INTP]
        rows = _csv_rows(scatter_to_csv(Z, codes, [0, 0, 1, 1], types=["enfj"]))
        assert [(r[2], r[3], r[4]) for r in rows] == [
            ("enfj", "0", "0"), ("enfj", "1", "0"), ("", "0", "1"), ("", "1", "1"),
        ]
        assert [float(v) for v in rows[2][:2]] == Z[[0, 1]].mean(axis=0).tolist()
        with pytest.raises(InvalidMbtiCode):
            scatter_to_csv(Z, codes, types=["xxxx"])

    def test_nothing_to_write_rejected(self, rng):
        Z = rng.normal(size=(3, 2))
        with pytest.raises(LengthMismatch, match="no scatter rows"):
            scatter_to_csv(Z, np.full(3, self.INTP), types=["esfj"])
        with pytest.raises(LengthMismatch, match="no scatter rows"):
            scatter_to_csv(np.empty((0, 2)), np.empty(0, dtype=np.int8))

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            scatter_to_csv(rng.normal(size=(4, 4)), np.full(4, self.INTP))
        with pytest.raises(DimensionMismatch):
            scatter_to_csv(rng.normal(size=4), np.full(4, self.INTP))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(LengthMismatch):
            scatter_to_csv(rng.normal(size=(4, 2)), np.full(3, self.INTP))
        with pytest.raises(LengthMismatch):
            scatter_to_csv(rng.normal(size=(4, 2)), np.full(4, self.INTP), [0, 1])

    def test_csv_layout_2d(self, rng):
        Z = rng.normal(size=(3, 2))
        text = scatter_to_csv(Z, [self.INTP, self.ENFJ, self.INTP], [0, 1, 0])
        lines = text.splitlines()
        assert lines[0] == "pc1,pc2,mbti,cluster,is_centroid"
        assert len(lines) == 1 + 3 + 2
        assert lines[1].endswith(",intp,0,0")
        assert lines[-1].split(",")[-1] == "1"

    def test_csv_layout_3d_header(self, rng):
        Z = rng.normal(size=(2, 3))
        text = scatter_to_csv(Z, [self.INTP, self.INTP])
        assert text.splitlines()[0] == "pc1,pc2,pc3,mbti,cluster,is_centroid"

    def test_pipeline_from_pca(self, small_dataset):
        X = small_dataset.feature_matrix()
        model = pca.fit_pca(X, 2)
        Z = pca.project(model, X)
        rows = _csv_rows(scatter_to_csv(Z, small_dataset.type_codes))
        assert len(rows) == len(small_dataset)
        assert [r[2] for r in rows] == [t.value for t in small_dataset.types]
