import numpy as np
import pytest

from oracles import load_dataset_oracle
from typetaste.domain import ALL_TYPES, MbtiType, default_catalog
from typetaste.errors import (
    DuplicateRespondent,
    EmptyTable,
    Error,
    InvalidMbtiCode,
    InvalidRating,
    SchemaMismatch,
)
from typetaste.ingest import (
    SURVEY_TYPE_COUNTS,
    RatingModel,
    SynthConfig,
    TypeFrequencyTable,
    dataset_to_csv,
    generate_synthetic,
    load_dataset,
    save_dataset,
    skew_summary,
    survey_frequency_table,
    type_frequencies,
)


class TestSurveyTypeCounts:
    def test_totals(self):
        table = survey_frequency_table()
        assert table.total == 1020
        introverts = sum(c for t, c in table.items() if t.is_introvert)
        assert introverts == 820

    def test_reference_counts(self):
        table = survey_frequency_table()
        assert table["intp"] == 221
        assert table["intj"] == 160
        assert table["infj"] == 134
        assert table["infp"] == 111
        assert table["istp"] == 81
        assert table["esfj"] == 3
        assert sum(SURVEY_TYPE_COUNTS.values()) == 1020


class TestTypeFrequencyTable:
    def test_missing_types_default_to_zero(self):
        table = TypeFrequencyTable({"intp": 5})
        assert table["intp"] == 5
        assert table["esfj"] == 0
        assert table.total == 5
        assert len(table.items()) == 16

    def test_items_canonical_order(self):
        table = TypeFrequencyTable({"istp": 1, "enfj": 2})
        assert [t for t, _ in table.items()] == list(ALL_TYPES)

    def test_string_and_enum_keys(self):
        table = TypeFrequencyTable({MbtiType.INTP: 3, "ENFJ": 4})
        assert table[MbtiType.INTP] == 3
        assert table["enfj"] == 4

    def test_negative_count_rejected(self):
        with pytest.raises(Error):
            TypeFrequencyTable({"intp": -1})

    def test_conflicting_spellings_rejected(self):
        with pytest.raises(Error):
            TypeFrequencyTable({"intp": 1, "INTP": 2})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidMbtiCode):
            TypeFrequencyTable({"wxyz": 1})

    def test_ranked_descending_with_alpha_ties(self):
        table = TypeFrequencyTable({"intp": 4, "enfj": 9, "istp": 4, "esfj": 1})
        ranked = table.ranked()
        assert [t.value for t, _ in ranked[:4]] == ["enfj", "intp", "istp", "esfj"]
        assert len(ranked) == 16
        assert ranked[-1][1] == 0


class TestRatingModel:
    def test_planted_shape_and_bounds(self):
        cat = default_catalog()
        model = RatingModel.planted(cat)
        assert model.means.shape == (16, 121)
        assert np.all(model.means >= 1.0)
        assert np.all(model.means <= 5.0)

    def test_planted_is_deterministic(self):
        cat = default_catalog()
        a = RatingModel.planted(cat)
        b = RatingModel.planted(cat)
        assert np.array_equal(a.means, b.means)

    def test_planted_profiles_differ_between_types(self):
        model = RatingModel.planted(default_catalog())
        assert not np.array_equal(model.means[0], model.means[1])

    def test_planted_nonfiction_preference(self):
        cat = default_catalog()
        model = RatingModel.planted(cat)
        psych = cat.index("Psychology")
        relig = cat.index("Religion & Spirituality")
        for code in ("intp", "intj", "infj", "infp"):
            row = ALL_TYPES.index(MbtiType(code))
            assert model.means[row, psych] == 5.0
            assert model.means[row, relig] == 2.0

    def test_bad_ranges_rejected(self):
        with pytest.raises(Error):
            RatingModel(np.full((16, 121), 7.0))
        with pytest.raises(Error):
            RatingModel(np.full((16, 121), 3.0), dispersion=-0.5)


class TestSynthConfig:
    def test_defaults(self):
        config = SynthConfig(seed=1)
        assert config.frequencies.total == 1020
        assert len(config.catalog) == 121
        assert config.rating_model.means.shape == (16, 121)

    def test_seed_range_enforced(self):
        SynthConfig(seed=2**64 - 1)
        with pytest.raises(Error):
            SynthConfig(seed=-1)
        with pytest.raises(Error):
            SynthConfig(seed=2**64)

    def test_empty_frequencies_rejected(self):
        with pytest.raises(Error):
            SynthConfig(seed=1, frequencies=TypeFrequencyTable({}))


class TestGenerateSynthetic:
    def test_honors_frequencies_exactly(self):
        frequencies = TypeFrequencyTable({"intp": 5, "esfp": 2})
        ds = generate_synthetic(SynthConfig(seed=0, frequencies=frequencies))
        observed = type_frequencies(ds)
        assert observed["intp"] == 5
        assert observed["esfp"] == 2
        assert observed.total == 7

    def test_reference_dataset_shape(self, survey_dataset):
        assert len(survey_dataset) == 1020
        observed = type_frequencies(survey_dataset)
        for code, count in SURVEY_TYPE_COUNTS.items():
            assert observed[code] == count

    def test_id_format_and_grouping(self):
        frequencies = TypeFrequencyTable({"enfj": 2, "intp": 2})
        ds = generate_synthetic(SynthConfig(seed=1, frequencies=frequencies))
        assert ds.respondent_ids == ("enfj-000", "enfj-001", "intp-000", "intp-001")

    def test_ratings_in_scale(self, survey_dataset):
        m = survey_dataset.rating_matrix()
        assert m.min() >= 0 and m.max() <= 6

    def test_same_seed_same_dataset(self):
        a = generate_synthetic(SynthConfig(seed=5))
        b = generate_synthetic(SynthConfig(seed=5))
        assert a == b

    def test_different_seed_different_dataset(self):
        a = generate_synthetic(SynthConfig(seed=5))
        b = generate_synthetic(SynthConfig(seed=6))
        assert a != b


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path, small_dataset):
        path = tmp_path / "data.csv"
        save_dataset(small_dataset, path)
        loaded = load_dataset(path)
        assert loaded == small_dataset

    def test_lf_line_endings_and_header(self, tmp_path, small_dataset):
        path = tmp_path / "data.csv"
        save_dataset(small_dataset, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.split(b"\n", 1)[0].decode("utf-8").split(",")
        assert header[:2] == ["respondent_id", "mbti"]
        assert len(header) == 2 + 121

    def test_text_form_matches_file_form(self, tmp_path, small_dataset):
        path = tmp_path / "data.csv"
        save_dataset(small_dataset, path)
        assert path.read_text(encoding="utf-8") == dataset_to_csv(small_dataset)

    def _lines(self, small_dataset):
        return dataset_to_csv(small_dataset).splitlines()

    def _write(self, tmp_path, lines):
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_rejects_header_mismatch(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[0] = lines[0].replace("respondent_id", "id")
        with pytest.raises(SchemaMismatch):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_bad_mbti(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        cells = lines[1].split(",")
        cells[1] = "intx"
        lines[1] = ",".join(cells)
        with pytest.raises(InvalidMbtiCode):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("bad", ["7", "-1", "3.5", "x", ""])
    def test_load_rejects_bad_rating(self, tmp_path, small_dataset, bad):
        lines = self._lines(small_dataset)
        prefix = ",".join(lines[1].split(",")[:2])
        rest = lines[1].split(",")[3:]
        lines[1] = ",".join([prefix, bad, *rest])
        with pytest.raises(InvalidRating, match=r"^line 2, column 'fiction_00': "):
            load_dataset(self._write(tmp_path, lines))

    def test_load_reports_first_of_two_errors(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        cells = lines[1].split(",")
        cells[5] = "x"
        lines[1] = ",".join(cells)
        lines[3] = ",".join(lines[3].split(",")[:-1])
        with pytest.raises(InvalidRating, match=r"^line 2, column 'fiction_03': .*'x'"):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_duplicate_id(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines.append(lines[1])
        with pytest.raises(DuplicateRespondent):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_bad_id_charset(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[1] = "bad id" + lines[1][lines[1].index(","):]
        with pytest.raises(SchemaMismatch):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_short_row(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[1] = ",".join(lines[1].split(",")[:-1])
        with pytest.raises(SchemaMismatch):
            load_dataset(self._write(tmp_path, lines))

    def test_load_reports_line_number(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[3] = ",".join(lines[3].split(",")[:-1])
        with pytest.raises(SchemaMismatch, match="line 4"):
            load_dataset(self._write(tmp_path, lines))


class TestSkewSummary:
    def test_reference_profile(self):
        summary = skew_summary(survey_frequency_table())
        assert summary.total == 1020
        assert summary.introvert_fraction == pytest.approx(820 / 1020)
        assert [t.value for t, _ in summary.top_types] == [
            "intp", "intj", "infj", "infp",
        ]
        assert [c for _, c in summary.top_types] == [221, 160, 134, 111]

    def test_tie_breaks_alphabetically(self):
        table = TypeFrequencyTable({"istp": 4, "enfj": 4, "intp": 9})
        summary = skew_summary(table, top_n=3)
        assert [t.value for t, _ in summary.top_types] == ["intp", "enfj", "istp"]

    def test_top_n_clamps(self):
        table = TypeFrequencyTable({"intp": 1})
        assert len(skew_summary(table, top_n=99).top_types) == 16
        assert len(skew_summary(table, top_n=0).top_types) == 0

    def test_empty_table_raises(self):
        with pytest.raises(EmptyTable):
            skew_summary(TypeFrequencyTable({"intp": 0}))

    def test_all_extrovert_fraction(self):
        table = TypeFrequencyTable({"enfj": 2, "estp": 2})
        assert skew_summary(table).introvert_fraction == 0.0


class TestLoaderAgainstOracle:
    """``load_dataset`` reads in bulk; the row-by-row reader is the reference."""

    @pytest.fixture(scope="class")
    def lines(self, survey_dataset):
        lines = dataset_to_csv(survey_dataset).splitlines()
        assert any(",0," in line for line in lines[1:])
        return lines

    def _write(self, tmp_path, lines, ending="\n"):
        path = tmp_path / "survey.csv"
        path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        return path

    def _odd_but_valid(self, lines):
        """Cells written "06" and "00", upper-case types, blank lines."""
        out = list(lines)
        rng = np.random.default_rng(5)
        for i in rng.choice(np.arange(1, len(out)), size=40, replace=False):
            cells = out[i].split(",")
            j = int(rng.integers(2, len(cells)))
            cells[j] = "0" + cells[j]
            cells[1] = cells[1].upper() if i % 2 else cells[1]
            out[i] = ",".join(cells)
        out[300:300] = [""]
        return out + [""]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_same_columns(self, tmp_path, lines, ending):
        path = self._write(tmp_path, self._odd_but_valid(lines), ending)
        ids, types, matrix = load_dataset_oracle(path)
        loaded = load_dataset(path)
        assert loaded.respondent_ids == ids
        assert loaded.types == types
        assert np.array_equal(loaded.rating_matrix(), matrix)

    @pytest.mark.parametrize(
        "edits",
        [
            [(700, 90, "x")],
            [(5, 2, "٣")],
            [(5, 2, " 3")],
            [(5, 2, "+3")],
            [(5, 40, "9" * 30)],
            [(5, 1, "intx")],
            [(5, 0, "bad id")],
            [(5, 0, "")],
            [(9, 4, "x"), (9, 3, "7")],
            [(9, 1, "qq"), (9, 4, "x")],
            [(9, 0, "a b"), (9, 1, "qq")],
            [(2, 5, "x"), (4, None, "short")],
            [(2, None, "short"), (4, 5, "x")],
            [(3, 1, "zzzz"), (30, 0, "dup")],
            [(30, 0, "dup"), (40, 5, "9")],
            [(12, None, "long")],
        ],
    )
    def test_same_first_error(self, tmp_path, lines, edits):
        out = self._odd_but_valid(lines)
        for row, column, value in edits:
            cells = out[row].split(",")
            if value == "short":
                cells = cells[:-1]
            elif value == "long":
                cells.append("3")
            elif value == "dup":
                cells[column] = out[1].split(",")[0]
            else:
                cells[column] = value
            out[row] = ",".join(cells)
        path = self._write(tmp_path, out)
        with pytest.raises(Error) as expected:
            load_dataset_oracle(path)
        with pytest.raises(type(expected.value)) as found:
            load_dataset(path)
        assert str(found.value) == str(expected.value)
