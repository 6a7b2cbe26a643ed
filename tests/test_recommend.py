import json
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import profiles_oracle, ranking_oracle
from typetaste.domain import (
    ALL_TYPES,
    CATEGORY_SIZES,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    default_catalog,
)
from typetaste.errors import Error
from typetaste.recommend import (
    MIN_SUPPORT,
    build_profiles,
    recommend_for_type,
    recommend_for_user,
    recommendation_to_json,
    recommendation_to_text,
)


@pytest.fixture(scope="module")
def profile_dataset():
    """Six intp respondents with controlled ratings on a few probe genres."""
    cat = default_catalog()
    probes = {
        "Psychology": [6, 5, 6, 5, 6, 5],            # mean 5.5, support 6
        "Religion & Spirituality": [2, 2, 1, 2, 0, 0],  # mean 1.75, support 4
        "fiction_00": [0, 0, 0, 0, 0, 0],            # never tried
        "music_00": [4, 6, 0, 0, 0, 0],              # mean 5.0, support 2
        "movies_00": [5, 5, 5, 5, 5, 0],             # mean 5.0, support 5
        "games_00": [3, 3, 3, 3, 3, 3],              # mean 3.0, support 6
    }
    records = []
    for i in range(6):
        ratings = [1] * len(cat)  # background: everyone dislikes everything else
        for genre, values in probes.items():
            ratings[cat.index(genre)] = values[i]
        records.append(SurveyRecord(f"intp-{i}", "intp", ratings))
    records.append(SurveyRecord("cold-0", "intp", [0] * len(cat)))
    return Dataset(cat, tuple(records))


BAD_TOP_N = [
    (2.5, "top_n must be an integer, got float"),
    ("3", "top_n must be an integer, got str"),
    (None, "top_n must be an integer, got NoneType"),
    (True, "top_n must be an integer, got bool"),
]


def _fields(rec):
    """A recommendation's items as :func:`ranking_oracle` tuples."""
    return [(i.genre, i.category, i.score, i.support, i.low_support) for i in rec.items]


def _row(profiles, code):
    """One type's (mean, enjoyment share, support) rows of a profile set."""
    i = TYPE_INDEX[code]
    return profiles.mean[i], profiles.enjoyment_share[i], profiles.support[i]


class TestBuildProfiles:
    def test_matches_record_by_record_tally(self, survey_dataset):
        profiles = build_profiles(survey_dataset.restrict_types(["intp", "estj", "enfj"]))
        expected = profiles_oracle(survey_dataset.records, len(survey_dataset.catalog))
        for t in ("intp", "estj", "enfj"):
            mean, share, support = expected[t]
            got_mean, got_share, got_support = _row(profiles, t)
            assert np.array_equal(got_mean, mean, equal_nan=True)
            assert np.array_equal(got_share, share, equal_nan=True)
            assert np.array_equal(got_support, support)
        mean, _, support = _row(profiles, "isfj")
        assert support.sum() == 0
        assert np.isnan(mean).all()

    def test_no_respondents_raises(self):
        with pytest.raises(Error, match="^dataset has no respondents$"):
            build_profiles(Dataset(default_catalog(), ()))

    def test_covers_all_types(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        shape = (len(ALL_TYPES), len(profile_dataset.catalog))
        assert profiles.mean.shape == profiles.enjoyment_share.shape == shape
        assert profiles.support.shape == shape
        assert profiles.catalog is profile_dataset.catalog

    def test_mean_excludes_no_experience(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        cat = profile_dataset.catalog
        mean, _, support = _row(profiles, "intp")
        assert mean[cat.index("Psychology")] == pytest.approx(5.5)
        assert support[cat.index("Psychology")] == 6
        assert mean[cat.index("Religion & Spirituality")] == pytest.approx(1.75)
        assert support[cat.index("Religion & Spirituality")] == 4
        assert mean[cat.index("music_00")] == pytest.approx(5.0)
        assert support[cat.index("music_00")] == 2

    def test_untried_genre_is_nan_with_zero_support(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        cat = profile_dataset.catalog
        mean, _, support = _row(profiles, "intp")
        assert np.isnan(mean[cat.index("fiction_00")])
        assert support[cat.index("fiction_00")] == 0

    def test_enjoyment_share(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        cat = profile_dataset.catalog
        _, share, _ = _row(profiles, "intp")
        assert share[cat.index("Psychology")] == pytest.approx(1.0)
        assert share[cat.index("games_00")] == pytest.approx(0.0)
        assert share[cat.index("Religion & Spirituality")] == pytest.approx(0.0)

    def test_absent_type_has_empty_profile(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        mean, _, support = _row(profiles, "esfp")
        assert np.all(np.isnan(mean))
        assert np.all(support == 0)


class TestRecommendForType:
    def test_ranking_and_flags(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        rec = recommend_for_type(profiles, "intp", top_n=4)
        assert rec.strategy == "type-profile"
        assert [item.genre for item in rec.items[:2]] == ["Psychology", "movies_00"]
        top = rec.items[0]
        assert top.score == pytest.approx(5.5)
        assert top.support == 6
        assert not top.low_support
        assert top.category == "nonfiction-books"

    def test_low_support_boundary(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        by_genre = {i.genre: i for i in recommend_for_type(profiles, "intp", top_n=121).items}
        assert MIN_SUPPORT == 5
        assert not by_genre["movies_00"].low_support  # support exactly 5
        assert by_genre["music_00"].low_support       # support 2

    def test_psychology_above_religion(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        order = [i.genre for i in recommend_for_type(profiles, "intp", top_n=121).items]
        assert order.index("Psychology") < order.index("Religion & Spirituality")

    def test_untried_ranks_below_everything_rated(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        items = recommend_for_type(profiles, "intp", top_n=121).items
        order = [i.genre for i in items]
        # fiction_00 (never tried, score 0) sorts after every rated genre.
        rated = [g for g in order if g != "fiction_00"]
        assert order.index("fiction_00") > max(order.index(g) for g in rated)
        assert items[order.index("fiction_00")].score == 0.0

    def test_ties_break_alphabetically(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        items = recommend_for_type(profiles, "intp", top_n=121).items
        background = [i.genre for i in items if i.score == pytest.approx(1.0)]
        assert background == sorted(background)

    def test_category_filter(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        rec = recommend_for_type(profiles, "intp", category="music", top_n=121)
        assert len(rec.items) == 25
        assert all(i.category == "music" for i in rec.items)
        assert rec.items[0].genre == "music_00"

    def test_unknown_category_rejected(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        with pytest.raises(Error, match="^unknown category: 'poetry'$"):
            recommend_for_type(profiles, "intp", category="poetry")

    def test_unknown_type_rejected(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        with pytest.raises(Error, match="^not a valid personality code: 'wxyz'$"):
            recommend_for_type(profiles, "wxyz")

    def test_top_n_clamps(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        assert len(recommend_for_type(profiles, "intp", top_n=3).items) == 3
        assert len(recommend_for_type(profiles, "intp", top_n=500).items) == 121
        assert len(recommend_for_type(profiles, "intp", top_n=0).items) == 0
        assert recommend_for_type(profiles, "intp", top_n=-2).items == ()
        assert recommend_for_type(profiles, "intp", category="music", top_n=-1).items == ()
        assert len(recommend_for_type(profiles, "intp", top_n=np.int64(4)).items) == 4

    @pytest.mark.parametrize("top_n, message", BAD_TOP_N)
    def test_top_n_must_be_an_integer(self, profile_dataset, top_n, message):
        profiles = build_profiles(profile_dataset)
        with pytest.raises(Error, match=f"^{message}$"):
            recommend_for_type(profiles, "intp", top_n=top_n)
        with pytest.raises(Error, match=f"^{message}$"):
            recommend_for_type(profiles, "intp", category="music", top_n=top_n)


class TestRecommendForUser:
    def _user(self, profile_dataset, **ratings):
        cat = profile_dataset.catalog
        values = [0] * len(cat)
        for genre, value in ratings.items():
            values[cat.index(genre)] = value
        return SurveyRecord("u-1", "intp", values)

    def test_blend_math(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"games_00": 6})
        rec = recommend_for_user(profiles, user, top_n=121, blend_weight=0.5)
        assert rec.strategy == "blended"
        score = {i.genre: i.score for i in rec.items}
        # 0.5 * own 6 + 0.5 * type mean 3.0
        assert score["games_00"] == pytest.approx(4.5)
        # untried genres keep the type mean
        assert score["Psychology"] == pytest.approx(5.5)

    def test_blend_weight_extremes(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"games_00": 6})
        own = recommend_for_user(profiles, user, top_n=121, blend_weight=1.0)
        assert {i.genre: i.score for i in own.items}["games_00"] == pytest.approx(6.0)
        pooled = recommend_for_user(profiles, user, top_n=121, blend_weight=0.0)
        assert {i.genre: i.score for i in pooled.items}["games_00"] == pytest.approx(3.0)

    def test_disliked_genres_dropped(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"Psychology": 2, "movies_00": 1})
        rec = recommend_for_user(profiles, user, top_n=121)
        genres = [i.genre for i in rec.items]
        assert "Psychology" not in genres
        assert "movies_00" not in genres
        assert len(genres) == 119

    def test_genre_only_user_tried_keeps_own_rating(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"fiction_00": 6})
        rec = recommend_for_user(profiles, user, top_n=121, blend_weight=0.5)
        score = {i.genre: i.score for i in rec.items}
        assert score["fiction_00"] == pytest.approx(6.0)

    def test_cold_start_equals_type_profile(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        cold = profile_dataset.record("cold-0")
        from_user = recommend_for_user(profiles, cold, top_n=10)
        from_type = recommend_for_type(profiles, "intp", top_n=10)
        assert from_user == from_type
        assert recommendation_to_json(from_user) == recommendation_to_json(from_type)

    def test_bad_blend_weight_rejected(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset)
        with pytest.raises(Error, match=r"^blend weight must be within 0\.\.1, got 1\.5$"):
            recommend_for_user(profiles, user, blend_weight=1.5)

    @pytest.mark.parametrize("blend, message", [
        (-0.1, "blend weight must be within 0..1, got -0.1"),
        (float("nan"), "blend weight must be within 0..1, got nan"),
        ("0.5", "blend weight must be a real number, got str"),
        (None, "blend weight must be a real number, got NoneType"),
        (True, "blend weight must be a real number, got bool"),
        (0.5j, "blend weight must be a real number, got complex"),
    ])
    def test_blend_weight_must_be_real_within_0_1(self, profile_dataset, blend, message):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset)
        with pytest.raises(Error, match=f"^{re.escape(message)}$"):
            recommend_for_user(profiles, user, blend_weight=blend)

    @pytest.mark.parametrize("blend", [np.float64(0.5), np.float32(0.5), Fraction(1, 2)])
    def test_real_blend_weights_accepted(self, profile_dataset, blend):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"games_00": 6, "Psychology": 4})
        rec = recommend_for_user(profiles, user, top_n=121, blend_weight=blend)
        assert rec == recommend_for_user(profiles, user, top_n=121, blend_weight=0.5)

    @pytest.mark.parametrize("top_n, message", BAD_TOP_N)
    def test_top_n_must_be_an_integer(self, profile_dataset, top_n, message):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"games_00": 6})
        with pytest.raises(Error, match=f"^{message}$"):
            recommend_for_user(profiles, user, top_n=top_n)

    def test_negative_top_n_gives_no_items(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        user = self._user(profile_dataset, **{"games_00": 6})
        assert recommend_for_user(profiles, user, top_n=-3).items == ()


class TestAgainstRankingOracle:
    """Every ranking of the reference-sized survey equals the plain-Python
    oracle's, field for field."""

    def test_type_rankings(self, survey_dataset):
        profiles = build_profiles(survey_dataset)
        catalog = survey_dataset.catalog
        expected = profiles_oracle(survey_dataset.records, len(catalog))
        for t in ALL_TYPES:
            for category in (None,) + catalog.category_names:
                rec = recommend_for_type(profiles, t, category=category, top_n=121)
                assert rec.mbti == t and rec.strategy == "type-profile"
                assert _fields(rec) == ranking_oracle(
                    catalog, expected[t], category=category
                )

    def test_user_rankings(self, survey_dataset):
        profiles = build_profiles(survey_dataset)
        catalog = survey_dataset.catalog
        expected = profiles_oracle(survey_dataset.records, len(catalog))
        for user in survey_dataset.records[::50]:
            for blend in (0.0, 0.5, 1.0):
                rec = recommend_for_user(profiles, user, top_n=121, blend_weight=blend)
                assert rec.mbti == user.mbti and rec.strategy == "blended"
                assert _fields(rec) == ranking_oracle(
                    catalog, expected[user.mbti], ratings=user.ratings, blend_weight=blend
                )


class TestNameOrder:
    """Ties break by Python's string order (code point), on a catalog whose
    names sort differently by case, by accent or by numpy's ``<U`` rules
    (which drop trailing NULs), with many equal scores and one absent type."""

    SPECIAL = ("B", "a", "\u00e9", "a\x00", "A", "b", "e", "z", "Z", "\u00c9", "_", "a b", "aa")
    ABSENT = "esfp"
    TOP_NS = (0, 1, 10, 121, 500)

    @pytest.fixture(scope="class")
    def survey(self):
        rng = np.random.default_rng(19)
        n_genres = sum(CATEGORY_SIZES.values())
        names = list(self.SPECIAL) + [
            f"{'Gg'[i % 2]}enre {i // 2:02d}" for i in range(n_genres - len(self.SPECIAL))
        ]
        names = [names[i] for i in rng.permutation(n_genres)]
        # "a\x00" before "a" in column order, so that a stable sort which
        # reads them as equal (as numpy's <U strings do) ranks them wrongly.
        i, j = sorted((names.index("a\x00"), names.index("a")))
        names[i], names[j] = "a\x00", "a"
        catalog = GenreCatalog(names)
        # 121 columns drawn from 12 distinct ones, so most scores tie; every
        # special name shares one column.
        base = rng.integers(0, 7, size=(60, 12))
        base[:, 0] = 0  # a column nobody tried: it scores 0 for every type
        source = rng.integers(0, 12, size=n_genres)
        source[[catalog.index(g) for g in self.SPECIAL]] = 3
        ratings = base[:, source]
        types = [t for t in ALL_TYPES if t != self.ABSENT]
        records = tuple(
            SurveyRecord(f"r{i}", types[i % len(types)], ratings[i].tolist())
            for i in range(len(ratings))
        )
        return Dataset(catalog, records)

    def test_name_rank_is_python_string_order(self, survey):
        catalog = survey.catalog
        ranked = sorted(catalog.genres, key=lambda g: catalog.name_rank[catalog.index(g)])
        assert ranked == sorted(catalog.genres)
        assert ranked.index("B") < ranked.index("a") < ranked.index("a\x00")
        assert ranked.index("z") < ranked.index("\u00e9")
        assert not catalog.name_rank.flags.writeable

    def test_type_rankings(self, survey):
        profiles = build_profiles(survey)
        catalog = survey.catalog
        expected = profiles_oracle(survey.records, len(catalog))
        assert np.isnan(profiles.mean[TYPE_INDEX[self.ABSENT]]).all()
        for t in ALL_TYPES:
            for category in (None,) + catalog.category_names:
                want = ranking_oracle(catalog, expected[t], category=category)
                full = _fields(recommend_for_type(profiles, t, category, top_n=500))
                assert full == want
                for top_n in self.TOP_NS:
                    got = _fields(recommend_for_type(profiles, t, category, top_n))
                    assert got == want[:top_n] == full[:top_n]

    def test_user_rankings(self, survey):
        profiles = build_profiles(survey)
        catalog = survey.catalog
        expected = profiles_oracle(survey.records, len(catalog))
        rng = np.random.default_rng(20)
        users = list(survey.records[::7]) + [
            SurveyRecord("absent", self.ABSENT, rng.integers(0, 7, len(catalog)).tolist()),
            SurveyRecord("cold", "intp", [0] * len(catalog)),
        ]
        for user in users:
            for blend in (0.0, 0.5, 1.0):
                want = ranking_oracle(
                    catalog, expected[user.mbti], ratings=user.ratings, blend_weight=blend
                )
                full = _fields(recommend_for_user(profiles, user, 500, blend))
                assert full == want
                for top_n in self.TOP_NS:
                    got = _fields(recommend_for_user(profiles, user, top_n, blend))
                    assert got == want[:top_n] == full[:top_n]


class TestRendering:
    def test_json_shape(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        rec = recommend_for_type(profiles, "intp", top_n=2)
        doc = json.loads(recommendation_to_json(rec))
        assert doc["mbti"] == "intp"
        assert doc["strategy"] == "type-profile"
        assert len(doc["items"]) == 2
        assert set(doc["items"][0]) == {
            "genre", "category", "score", "support", "low_support",
        }
        assert doc["items"][0]["genre"] == "Psychology"

    def test_text_shape(self, profile_dataset):
        profiles = build_profiles(profile_dataset)
        rec = recommend_for_type(profiles, "intp", top_n=3)
        text = recommendation_to_text(rec)
        lines = text.splitlines()
        assert lines[0] == "Top genres for intp (type-profile):"
        assert len(lines) == 4
        assert "Psychology" in lines[1]
        loser = recommend_for_type(profiles, "esfp", top_n=1)
        assert "[low support]" in recommendation_to_text(loser)
