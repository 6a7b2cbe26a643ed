import numpy as np
import pytest

from oracles import leaning_oracle, pair_table_oracle
from typetaste import pca
from typetaste.analysis import (
    inclination,
    pair_rating_table,
    pair_table_to_csv,
    scatter_to_csv,
)
from typetaste.recommend import build_profiles
from typetaste.domain import (
    ALL_TYPES,
    TYPE_INDEX,
    Dataset,
    SurveyRecord,
    default_catalog,
)
from typetaste.errors import Error

RATINGS = np.arange(1, 7)


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
            ("intp", "Psychology", "Religion & Spirituality"),
            ("esfj", "music_03", "movies_20"),
            ("infj", "games_10", "fiction_00"),
        ]:
            table = pair_rating_table(survey_dataset, t, a, b)
            expected = pair_table_oracle(survey_dataset.records, t, cat.index(a), cat.index(b))
            assert table.dtype == np.int64
            assert np.array_equal(table, expected)

    def test_cells_and_total(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        assert table.sum() == 4  # only the intp respondents
        assert table[6, 2] == 1
        assert table[5, 2] == 1
        assert table[5, 0] == 1
        assert table[0, 4] == 1

    def test_marginals(self, pair_dataset):
        # Each genre's marginal over ratings 1..6 holds the profile's raters
        # and mean for it: the table and the taste rule see the same survey.
        table = pair_rating_table(
            pair_dataset, "intp", "Psychology", "Religion & Spirituality"
        )
        assert table.sum(axis=1).tolist() == [1, 0, 0, 0, 0, 2, 1]
        assert table.sum(axis=0).tolist() == [1, 0, 2, 0, 1, 0, 0]
        profiles = build_profiles(pair_dataset)
        cat, row = pair_dataset.catalog, TYPE_INDEX["intp"]
        for genre, marginal in [
            ("Psychology", table.sum(axis=1)),
            ("Religion & Spirituality", table.sum(axis=0)),
        ]:
            raters = marginal[1:].sum()
            assert profiles.support[row, cat.index(genre)] == raters
            assert profiles.mean[row, cat.index(genre)] == (RATINGS @ marginal[1:]) / raters

    def test_type_case_insensitive(self, pair_dataset):
        args = ("Psychology", "Religion & Spirituality")
        table = pair_rating_table(pair_dataset, "INTP", *args)
        assert np.array_equal(table, pair_rating_table(pair_dataset, "intp", *args))
        assert pair_table_to_csv(table, "INTP", *args).startswith("# type=intp\n")

    def test_absent_type_gives_zero_table(self, pair_dataset):
        table = pair_rating_table(
            pair_dataset, "esfj", "Psychology", "Religion & Spirituality"
        )
        assert table.shape == (7, 7)
        assert table.sum() == 0

    def test_unknown_genre_rejected(self, pair_dataset):
        with pytest.raises(Error, match="^genre not in catalog: 'Alchemy'$"):
            pair_rating_table(pair_dataset, "intp", "Psychology", "Alchemy")

    def test_unknown_type_rejected(self, pair_dataset):
        with pytest.raises(Error, match="^not a valid personality code: 'wxyz'$"):
            pair_rating_table(pair_dataset, "wxyz", "Psychology", "Religion & Spirituality")

    def test_csv_layout(self, pair_dataset):
        args = ("intp", "Psychology", "Religion & Spirituality")
        table = pair_rating_table(pair_dataset, *args)
        lines = pair_table_to_csv(table, *args).splitlines()
        assert lines[0] == "# type=intp"
        assert lines[1] == "# genre_a=Psychology"
        assert lines[2] == "# genre_b=Religion & Spirituality"
        assert lines[3] == "b=0,b=1,b=2,b=3,b=4,b=5,b=6"
        assert len(lines) == 4 + 7
        parsed = [[int(x) for x in line.split(",")] for line in lines[4:]]
        assert np.array_equal(np.array(parsed), table)

    def test_csv_refuses_tables_that_are_not_7x7_counts(self):
        args = ("intp", "Psychology", "Religion & Spirituality")
        with pytest.raises(Error, match=r"^a pair table must be 7x7, got shape \(3, 7\)$"):
            pair_table_to_csv(np.zeros((3, 7), dtype=np.int64), *args)
        for counts in ("x", None, np.arange(7), np.full((7, 7), 0.5)):
            with pytest.raises(Error, match="^a count table must be a 2-D array of non-negative"):
                pair_table_to_csv(counts, *args)


class TestInclination:
    def test_matches_pair_table_rule(self, survey_dataset):
        # The reference survey without its esfj respondents, so one of the
        # 16 types has no raters at all.
        dataset = survey_dataset.restrict_types(t for t in ALL_TYPES if t != "esfj")
        profiles = build_profiles(dataset)
        cat, records = dataset.catalog, dataset.records
        pick = np.random.default_rng(9).choice(len(cat), size=(6, 2), replace=False)
        pairs = [
            ("Psychology", "Religion & Spirituality"),
            ("Religion & Spirituality", "Psychology"),
            ("Psychology", "Psychology"),  # equal means
            *((cat.genres[i], cat.genres[j]) for i, j in pick.tolist()),
        ]
        outcomes = set()  # the cases must reach a-side, b-side and undecided
        for t in ALL_TYPES:
            for a, b in pairs:
                counts = pair_table_oracle(records, t, cat.index(a), cat.index(b))
                expected = leaning_oracle(counts, a, b)
                assert inclination(profiles, t, a, b) == expected, (t, a, b)
                outcomes.add(None if expected is None else expected == a)
            if t == "esfj":
                assert all(inclination(profiles, t, a, b) is None for a, b in pairs)
        assert outcomes == {None, True, False}

    def test_means_and_shares_exclude_no_experience(self, pair_dataset):
        profiles = build_profiles(pair_dataset)
        cat, row = pair_dataset.catalog, TYPE_INDEX["intp"]
        psych, relig = cat.index("Psychology"), cat.index("Religion & Spirituality")
        # Psychology: ratings 6, 5, 5 among raters (the 0 drops out).
        assert profiles.support[row, psych] == 3
        assert profiles.mean[row, psych] == pytest.approx(16 / 3)
        assert profiles.enjoyment_share[row, psych] == pytest.approx(1.0)
        # Religion & Spirituality: ratings 2, 2, 4.
        assert profiles.support[row, relig] == 3
        assert profiles.mean[row, relig] == pytest.approx(8 / 3)
        assert profiles.enjoyment_share[row, relig] == pytest.approx(1 / 3)
        for a, b in [("Psychology", "Religion & Spirituality"),
                     ("Religion & Spirituality", "Psychology")]:
            assert inclination(profiles, "INTP", a, b) == "Psychology"

    def test_no_raters_yields_none(self, pair_dataset):
        profiles = build_profiles(pair_dataset)
        assert inclination(profiles, "esfj", "Psychology", "Religion & Spirituality") is None
        # Every intp rated both music genres 3: equal means.
        assert inclination(profiles, "intp", "music_00", "music_01") is None
        with pytest.raises(Error, match="^genre not in catalog: 'Alchemy'$"):
            inclination(profiles, "intp", "Psychology", "Alchemy")


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
        with pytest.raises(Error, match="^not a valid personality code: 'xxxx'$"):
            scatter_to_csv(Z, codes, types=["xxxx"])

    def test_nothing_to_write_rejected(self, rng):
        Z = rng.normal(size=(3, 2))
        with pytest.raises(Error, match="^no scatter rows to serialize$"):
            scatter_to_csv(Z, np.full(3, self.INTP), types=["esfj"])
        with pytest.raises(Error, match="^no scatter rows to serialize$"):
            scatter_to_csv(np.empty((0, 2)), np.empty(0, dtype=np.int8))

    def test_wrong_width_rejected(self, rng):
        message = r"^coordinates must be \(n, 2\) or \(n, 3\), got "
        with pytest.raises(Error, match=message + r"\(4, 4\)$"):
            scatter_to_csv(rng.normal(size=(4, 4)), np.full(4, self.INTP))
        with pytest.raises(Error, match=message + r"\(4,\)$"):
            scatter_to_csv(rng.normal(size=4), np.full(4, self.INTP))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(Error, match="^3 type labels for 4 points$"):
            scatter_to_csv(rng.normal(size=(4, 2)), np.full(3, self.INTP))
        with pytest.raises(Error, match="^2 assignments for 4 points$"):
            scatter_to_csv(rng.normal(size=(4, 2)), np.full(4, self.INTP), [0, 1])

    @pytest.mark.parametrize(
        "clusters", [[0.5, 0.4, 1.7, 1.2], ["a", "a", "b", "b"], [True, True, False, False]]
    )
    def test_cluster_ids_must_be_integers(self, rng, clusters):
        """Float cluster ids were truncated to ints, and strings raised a raw
        ``ValueError``."""
        with pytest.raises(Error, match="^cluster ids must be integers, got dtype "):
            scatter_to_csv(rng.normal(size=(4, 2)), np.full(4, self.INTP), clusters)

    @pytest.mark.parametrize(
        "codes", [[0, 1, 2, 16], [0, 1, 2, -1], [0.0, 1.0, 2.0, 3.0], ["0", "1", "2", "3"]]
    )
    def test_type_codes_must_index_all_types(self, rng, codes):
        """The rule of ``Dataset.from_columns``: these raised a raw ``IndexError``."""
        with pytest.raises(Error, match="^type codes must be 4 indices into ALL_TYPES$"):
            scatter_to_csv(rng.normal(size=(4, 2)), codes)

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
        assert [r[2] for r in rows] == [ALL_TYPES[c] for c in small_dataset.type_codes]
