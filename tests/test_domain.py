import re

import numpy as np
import pytest

from typetaste.analysis import pair_rating_table
from typetaste.domain import (
    ALL_TYPES,
    CATEGORY_ORDER,
    CATEGORY_SIZES,
    CATEGORY_SLICES,
    COLUMN_CATEGORIES,
    N_GENRES,
    PSYCHOLOGY,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    default_catalog,
    integral_scale,
    load_catalog,
    save_catalog,
    type_code,
)
from typetaste.errors import Error
from typetaste.metrics import contingency, run_method_comparison
from typetaste.recommend import build_profiles, recommend_for_type


class TestMbtiType:
    """The 16 codes of ``ALL_TYPES`` and the one coercion rule, ``type_code``."""

    def test_sixteen_unique_types(self):
        assert len(ALL_TYPES) == 16
        assert len(set(ALL_TYPES)) == 16
        assert list(ALL_TYPES) == sorted(ALL_TYPES)

    def test_types_cover_all_letter_combinations(self):
        combos = {tuple(t) for t in ALL_TYPES}
        assert len(combos) == 16
        assert {c[0] for c in combos} == {"i", "e"}
        assert {c[1] for c in combos} == {"n", "s"}
        assert {c[2] for c in combos} == {"t", "f"}
        assert {c[3] for c in combos} == {"j", "p"}

    def test_str_is_lowercase_code(self):
        assert all(type(t) is str and t == t.lower() for t in ALL_TYPES)
        assert ALL_TYPES[TYPE_INDEX["intp"]] == "intp"

    @pytest.mark.parametrize("text", ["intp", "INTP", "Intp", "iNtP"])
    def test_parse_case_insensitive(self, text):
        assert type_code(text) == TYPE_INDEX["intp"]

    def test_parse_roundtrips_every_code(self):
        for i, t in enumerate(ALL_TYPES):
            assert type_code(t) == TYPE_INDEX[t] == i
            assert type_code(t.upper()) == i

    @pytest.mark.parametrize("text", ["", "int", "intx", "intpp", " intp", "abcd", 4])
    def test_parse_rejects_invalid(self, text):
        with pytest.raises(Error) as exc:
            type_code(text)
        assert str(exc.value) == f"not a valid personality code: {text!r}"


class TestRatingScale:
    """The 0..6 scale, checked on a record's ratings by the same rule as on a
    dataset's rating matrix."""

    def test_numpy_integers_accepted(self):
        ratings = SurveyRecord("a", "intp", [np.int64(5), np.int8(0)]).ratings
        assert ratings == (5, 0)
        assert all(type(r) is int for r in ratings)

    INVALID = {
        -1: r"rating must be in 0\.\.6, got -1",
        7: r"rating must be in 0\.\.6, got 7",
        100: r"rating must be in 0\.\.6, got 100",
        3.5: r"ratings must be integers, got dtype float64",
        "3": r"ratings must be integers, got dtype <U1",
        None: r"ratings must be integers, got dtype object",
    }

    @pytest.mark.parametrize("value", list(INVALID))
    def test_invalid_ratings_rejected(self, value):
        with pytest.raises(Error, match=f"^{self.INVALID[value]}$"):
            SurveyRecord("a", "intp", (value,))
        with pytest.raises(Error, match=f"^{self.INVALID[value]}$"):
            Dataset.from_columns(default_catalog(), ["a"], [0], np.full((1, 121), value))

    @pytest.mark.parametrize(
        "ratings, message",
        [
            ([True] * 121, r"ratings must be integers, got dtype bool"),
            (5, r"ratings must be 1-D, got shape \(\)"),
            (None, r"ratings must be 1-D, got shape \(\)"),
            ([[3] * 121], r"ratings must be 1-D, got shape \(1, 121\)"),
        ],
        ids=["bool", "int", "None", "2-D"],
    )
    def test_record_ratings_rejected(self, ratings, message):
        with pytest.raises(Error, match=f"^{message}$"):
            SurveyRecord("a", "intp", ratings)


@pytest.mark.parametrize(
    "values, scale",
    [
        ([[0.0, 6.0], [3.0, 1.0]], 6.0),
        ([[-7.0, 2.0]], 7.0),
        ([[-0.0]], 0.0),
        (np.zeros((0, 3)), 0.0),
        ([[1.0, 2.5]], None),
        ([[1.0, np.nan]], None),
        ([[np.inf, 1.0]], None),
        ([[-np.inf]], None),
    ],
    ids=["ratings", "negative", "negative-zero", "empty", "fraction", "nan", "inf", "-inf"],
)
def test_integral_scale(values, scale):
    """The one rule by which the silhouette and k-means choose an exact path."""
    assert integral_scale(np.asarray(values, dtype=np.float64)) == scale


class TestGenreCatalog:
    def test_default_catalog_shape(self):
        cat = default_catalog()
        assert len(cat) == N_GENRES == 121
        assert cat.category_names == CATEGORY_ORDER
        sizes = [len(cat.genres_in(name)) for name in cat.category_names]
        assert sizes == [CATEGORY_SIZES[name] for name in CATEGORY_ORDER] == [30, 34, 25, 21, 11]
        assert type(cat.genres) is tuple

    def test_default_catalog_named_genres(self):
        cat = default_catalog()
        assert "Psychology" in cat
        assert "Religion & Spirituality" in cat
        assert COLUMN_CATEGORIES[cat.index("Psychology")] == "nonfiction-books"
        assert COLUMN_CATEGORIES[cat.index("Religion & Spirituality")] == "nonfiction-books"

    def test_genre_names_unique(self):
        cat = default_catalog()
        assert len(set(cat.genres)) == len(cat.genres)

    def test_index_and_slices_agree(self):
        cat = default_catalog()
        for name in cat.category_names:
            sl = cat.category_slice(name)
            assert sl == CATEGORY_SLICES[name]
            for genre in cat.genres_in(name):
                assert sl.start <= cat.index(genre) < sl.stop
                assert COLUMN_CATEGORIES[cat.index(genre)] == name
        # slices tile the full column range
        stops = [cat.category_slice(n) for n in cat.category_names]
        assert stops[0].start == 0
        assert stops[-1].stop == len(cat)
        for left, right in zip(stops, stops[1:]):
            assert left.stop == right.start

    def test_unknown_genre_raises(self):
        cat = default_catalog()
        with pytest.raises(Error, match="^genre not in catalog: 'No Such Genre'$"):
            cat.index("No Such Genre")

    def test_unknown_category_raises(self):
        with pytest.raises(Error, match="^unknown category: 'poetry'$"):
            default_catalog().category_slice("poetry")

    @staticmethod
    def _catalog_lines(tmp_path):
        path = tmp_path / "catalog.csv"
        save_catalog(default_catalog(), path)
        return path, path.read_text(encoding="utf-8").splitlines()

    def test_wrong_category_order_rejected(self, tmp_path):
        """Categories out of layout order fail at the first line whose
        category is not the one the layout puts there."""
        path, lines = self._catalog_lines(tmp_path)
        games = CATEGORY_SLICES["video-games"]
        data = lines[1:]
        path.write_text("\n".join([lines[0], *data[games], *data[:games.start]]) + "\n")
        message = "^catalog line 2: expected category 'fiction-books', got 'video-games'$"
        with pytest.raises(Error, match=message):
            load_catalog(path)

    def test_wrong_category_size_rejected(self, tmp_path):
        """A category one genre short fails at the line after its last
        genre, and a line past the layout fails too; a file that ends early
        fails on its genre count."""
        path, lines = self._catalog_lines(tmp_path)
        last_music = CATEGORY_SLICES["music"].stop  # its index in lines, after the header
        cases = [
            (
                lines[:last_music] + lines[last_music + 1:],
                "catalog line 90: expected category 'music', got 'movies'",
            ),
            (
                lines + ["video-games,games_11"],
                "catalog line 123: the layout has only 121 genres",
            ),
            (lines[:-1], "a catalog must have 121 genres, got 120"),
        ]
        for text_lines, message in cases:
            path.write_text("\n".join(text_lines) + "\n", encoding="utf-8")
            with pytest.raises(Error, match=f"^{re.escape(message)}$"):
                load_catalog(path)

    def test_duplicate_genres_rejected(self):
        genres = list(default_catalog().genres)
        genres[0] = "Psychology"
        with pytest.raises(Error, match=r"^duplicate genre names: \['Psychology'\]$"):
            GenreCatalog(genres)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda g: g[:-1], "a catalog must have 121 genres, got 120"),
            (lambda g: g + ["extra"], "a catalog must have 121 genres, got 122"),
            (lambda g: g[:3] + [5] + g[4:], "genre names must be strings, got 5"),
            (lambda g: g[:3] + [["x"]] + g[4:], "genre names must be strings, got ['x']"),
            (lambda g: g[:3] + [""] + g[4:], "genre names must be non-empty"),
            (
                lambda g: [(name, tuple(g[CATEGORY_SLICES[name]])) for name in CATEGORY_ORDER],
                "a catalog must have 121 genres, got 5",
            ),
        ],
        ids=["short", "long", "int-name", "list-name", "empty-name", "nested-pairs"],
    )
    def test_malformed_genres_rejected(self, change, message):
        with pytest.raises(Error, match=f"^{re.escape(message)}$"):
            GenreCatalog(change(list(default_catalog().genres)))

    def test_genres_stored_as_tuple(self):
        """A list of names gives the catalog the same names as a tuple give."""
        genres = default_catalog().genres
        from_list = GenreCatalog(list(genres))
        assert from_list == GenreCatalog(genres) == default_catalog()
        assert type(from_list.genres) is tuple
        assert hash(from_list) == hash(default_catalog())

    def test_csv_roundtrip(self, tmp_path):
        cat = default_catalog()
        path = tmp_path / "catalog.csv"
        save_catalog(cat, path)
        assert load_catalog(path) == cat

    def test_csv_roundtrip_with_awkward_names(self, tmp_path):
        genres = list(default_catalog().genres)
        genres[CATEGORY_SLICES["music"].start] = 'Jazz, Swing & "Big Band"'
        awkward = GenreCatalog(genres)
        path = tmp_path / "catalog.csv"
        save_catalog(awkward, path)
        assert load_catalog(path) == awkward

    def test_row_error_before_csv_error(self, tmp_path):
        """A third column on line 3 is reported before a field past the csv
        module's limit on line 10."""
        path = tmp_path / "catalog.csv"
        save_catalog(default_catalog(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] += ",x"
        lines[9] = lines[9].split(",")[0] + "," + "g" * 200000
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(Error, match="^catalog line 3: expected 2 columns$"):
            load_catalog(path)

    def test_csv_error_after_valid_rows(self, tmp_path):
        path = tmp_path / "catalog.csv"
        save_catalog(default_catalog(), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[9] = lines[9].split(",")[0] + "," + "g" * 200000
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(Error, match=r": line 10: field larger than field limit \(131072\)$"):
            load_catalog(path)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text("genre,category\nx,y\n")
        message = r"^catalog header must be 'category,genre', got \['genre', 'category'\]$"
        with pytest.raises(Error, match=message):
            load_catalog(path)


def _record(rid="r-1", mbti="intp", width=121, fill=3):
    return SurveyRecord(rid, mbti, (fill,) * width)


class TestSurveyRecord:
    def test_coerces_mbti_and_ratings(self):
        rec = SurveyRecord("a-1", "INTP", [0, 6, 3])
        assert rec.mbti == "intp"
        assert rec.ratings == (0, 6, 3)

    def test_rejects_out_of_range_rating(self):
        with pytest.raises(Error, match=r"^rating must be in 0\.\.6, got 7$"):
            SurveyRecord("a-1", "intp", (0, 7))

    def test_rejects_bad_type(self):
        with pytest.raises(Error, match="^not a valid personality code: 'nope'$"):
            SurveyRecord("a-1", "nope", (0,))

    def test_rejects_empty_id(self):
        with pytest.raises(Error, match=r"^respondent id must match \[A-Za-z0-9_-\]\+, got ''$"):
            SurveyRecord("", "intp", (0,))


class TestDataset:
    def test_basic_accessors(self):
        cat = default_catalog()
        ds = Dataset(cat, (_record("a-1"), _record("b-2", "enfj", fill=5)))
        assert len(ds) == 2
        assert ds.respondent_ids == ("a-1", "b-2")
        assert ds.type_codes.tolist() == [TYPE_INDEX["intp"], TYPE_INDEX["enfj"]]
        assert ds.record("b-2").mbti == "enfj"
        with pytest.raises(Error, match="^no such respondent: 'missing'$"):
            ds.record("missing")

    def test_duplicate_ids_rejected(self):
        cat = default_catalog()
        with pytest.raises(Error, match="^duplicate respondent id: 'a-1'$"):
            Dataset(cat, (_record("a-1"), _record("a-1")))

    def test_wrong_width_rejected(self):
        cat = default_catalog()
        message = "^record 'r-1' has 120 ratings, catalog has 121 genres$"
        with pytest.raises(Error, match=message):
            Dataset(cat, (_record(width=120),))

    def test_rating_matrix_values_and_isolation(self):
        cat = default_catalog()
        ds = Dataset(cat, (_record("a-1", fill=2), _record("b-2", fill=6)))
        m = ds.rating_matrix()
        assert m.shape == (2, 121)
        assert m.dtype == np.int64
        assert set(m[0]) == {2} and set(m[1]) == {6}
        m[0, 0] = 99  # caller-side mutation must not leak back
        assert ds.rating_matrix()[0, 0] == 2

    def test_feature_matrix_category_slicing(self):
        cat = default_catalog()
        ds = Dataset(cat, (_record("a-1"),))
        full = ds.feature_matrix()
        assert full.shape == (1, 121)
        assert full.dtype == np.float64
        widths = [ds.feature_matrix(c).shape[1] for c in cat.category_names]
        assert widths == [30, 34, 25, 21, 11]
        sl = cat.category_slice("music")
        assert np.array_equal(ds.feature_matrix("music"), full[:, sl])

    def test_restrict_types(self):
        cat = default_catalog()
        ds = Dataset(
            cat,
            (_record("a-1", "intp"), _record("b-2", "enfj"), _record("c-3", "intp")),
        )
        sub = ds.restrict_types(["INTP"])
        assert sub.respondent_ids == ("a-1", "c-3")
        assert sub.catalog is cat

    def test_columns_and_record_views(self):
        cat = default_catalog()
        records = (_record("a-1", "intp", fill=0), _record("b-2", "enfj", fill=6))
        ds = Dataset(cat, records)
        assert ds.type_codes.tolist() == [ALL_TYPES.index("intp"), 0]
        assert ds.ratings.dtype == np.int8 and ds.ratings.shape == (2, 121)
        with pytest.raises(ValueError):
            ds.ratings[0, 0] = 1
        rebuilt = Dataset.from_columns(cat, ds.respondent_ids, ds.type_codes, ds.ratings)
        assert rebuilt == ds
        assert rebuilt.records == records
        assert rebuilt.record("b-2") == records[1]
        assert Dataset(cat, rebuilt.records) == ds

    @pytest.mark.parametrize(
        "ids, codes, ratings, message",
        [
            (("a", "b"), (0, 1), np.full((2, 120), 3),
             r"rating matrix has shape \(2, 120\), expected \(2, 121\)"),
            (("a", "b"), (0, 1), np.full((121, 2), 3),
             r"rating matrix has shape \(121, 2\), expected \(2, 121\)"),
            (("a", "b"), (0, 16), np.full((2, 121), 3),
             r"type codes must be 2 indices into ALL_TYPES"),
            (("a", "b"), ["1", "2"], np.full((2, 121), 3),
             r"type codes must be 2 indices into ALL_TYPES"),
            (("a", "b"), [True, False], np.full((2, 121), 3),
             r"type codes must be 2 indices into ALL_TYPES"),
            (("a", ""), (0, 1), np.full((2, 121), 3),
             r"respondent id must match \[A-Za-z0-9_-\]\+, got ''"),
            (("a", "b"), (0, 1), np.full((2, 121), 7), r"rating must be in 0\.\.6, got 7"),
            (("a", "b"), (0, 1), np.full((2, 121), 2.5),
             r"ratings must be integers, got dtype float64"),
            (("a", "b"), (0, 1), np.ones((2, 121), bool), r"ratings must be integers, got dtype bool"),
            (("a", "a"), (0, 1), np.full((2, 121), 3), r"duplicate respondent id: 'a'"),
        ],
        ids=[
            "too-few-columns", "transposed", "unknown-type-code", "string-type-codes",
            "bool-type-codes", "empty-id",
            "rating-out-of-range", "float-ratings", "bool-ratings", "duplicate-id",
        ],
    )
    def test_from_columns_validates(self, ids, codes, ratings, message):
        with pytest.raises(Error, match=f"^{message}$"):
            Dataset.from_columns(default_catalog(), ids, codes, ratings)


NAME_LOOKUPS = {
    "index": (lambda ds, name: ds.catalog.index(name), "genre not in catalog: "),
    "category_slice": (lambda ds, name: ds.catalog.category_slice(name), "unknown category: "),
    "recommend_for_type": (
        lambda ds, name: recommend_for_type(build_profiles(ds), "intp", category=name),
        "unknown category: ",
    ),
    "pair_rating_table": (
        lambda ds, name: pair_rating_table(ds, "intp", PSYCHOLOGY, name),
        "genre not in catalog: ",
    ),
    "run_method_comparison-methods": (
        lambda ds, name: run_method_comparison(ds, k=2, methods=[name]),
        "unknown method ",
    ),
    "run_method_comparison-categories": (
        lambda ds, name: run_method_comparison(ds, k=2, categories=[name]),
        "unknown category: ",
    ),
}


@pytest.mark.parametrize("name", [["music"], {"x": 1}, b"music", 3], ids=repr)
@pytest.mark.parametrize("entry", list(NAME_LOOKUPS))
def test_names_that_are_not_strings_raise_error(small_dataset, entry, name):
    """A name of another type, hashable or not, gets the message of an
    unknown name."""
    call, prefix = NAME_LOOKUPS[entry]
    with pytest.raises(Error, match=f"^{re.escape(prefix + repr(name))}"):
        call(small_dataset, name)
    assert name not in small_dataset.catalog


ID_ENTRY_POINTS = {
    "SurveyRecord": lambda cat, rid: SurveyRecord(rid, "intp", (3,) * len(cat)),
    "from_columns": lambda cat, rid: Dataset.from_columns(
        cat, ["ok", rid], [0, 1], np.full((2, len(cat)), 3)
    ),
    # _row skips the record's own checks, so the dataset's rule is the one hit.
    "records": lambda cat, rid: Dataset(
        cat, [SurveyRecord._row(r, "intp", (3,) * len(cat)) for r in ("ok", rid)]
    ),
}


@pytest.mark.parametrize("rid", ["a b", "x,y", "ab\n", "", 5], ids=repr)
@pytest.mark.parametrize("entry", list(ID_ENTRY_POINTS))
def test_bad_ids_refused_with_one_message(entry, rid):
    """Every in-memory entry point holds an id to the rule of the file
    format, so a dataset never holds an id it cannot write."""
    message = f"respondent id must match [A-Za-z0-9_-]+, got {rid!r}"
    with pytest.raises(Error, match=f"^{re.escape(message)}$"):
        ID_ENTRY_POINTS[entry](default_catalog(), rid)


def test_good_ids_accepted_on_every_entry_point():
    cat = default_catalog()
    for call in ID_ENTRY_POINTS.values():
        call(cat, "Z_9-a")


WRONG_KIND = {
    "GenreCatalog-None": (lambda ds: GenreCatalog(None), "a catalog must have 121 genres, got 0"),
    "GenreCatalog-5": (lambda ds: GenreCatalog(5), "a catalog must have 121 genres, got 0"),
    "Dataset-None": (
        lambda ds: Dataset(ds.catalog, None), "records must be an iterable of SurveyRecord"
    ),
    "Dataset-str": (
        lambda ds: Dataset(ds.catalog, "x"), "records must be an iterable of SurveyRecord"
    ),
    "from_columns-None": (
        lambda ds: Dataset.from_columns(ds.catalog, None, [], np.zeros((0, 121), np.int8)),
        "respondent id must match [A-Za-z0-9_-]+, got None",
    ),
    "record-list": (lambda ds: ds.record(["x"]), "no such respondent: ['x']"),
    "restrict_types-None": (
        lambda ds: ds.restrict_types(None), "not a valid personality code: None"
    ),
    "restrict_types-5": (lambda ds: ds.restrict_types(5), "not a valid personality code: 5"),
    "contingency-None": (
        lambda ds: contingency(None, [0]), "labels must be 1-D sequences, got shapes () and (1,)"
    ),
}


@pytest.mark.parametrize("entry", list(WRONG_KIND))
def test_values_of_the_wrong_kind_raise_error(small_dataset, entry):
    """A value that is not even a sequence gets the message of the rule it
    breaks, through the same check as any other bad value."""
    call, message = WRONG_KIND[entry]
    with pytest.raises(Error, match=f"^{re.escape(message)}$"):
        call(small_dataset)
