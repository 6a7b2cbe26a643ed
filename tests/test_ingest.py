import csv
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from oracles import dataset_to_csv_oracle, generate_synthetic_oracle, load_dataset_oracle
from typetaste.cli import run
from typetaste.domain import (
    ALL_TYPES,
    CATEGORY_SLICES,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    default_catalog,
    type_code,
)
from typetaste.errors import Error
from typetaste.ingest import (
    SURVEY_TYPE_COUNTS,
    SynthConfig,
    dataset_to_csv,
    generate_synthetic,
    load_dataset,
    planted_means,
    save_dataset,
)


def _counts(dataset) -> np.ndarray:
    return np.bincount(dataset.type_codes, minlength=len(ALL_TYPES))


def _freq(tmp_path, capsys, dataset) -> list[str]:
    """The lines ``freq`` prints for ``dataset``."""
    path = tmp_path / "survey.csv"
    save_dataset(dataset, path)
    assert run(["freq", "--input", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


class TestSurveyTypeCounts:
    def test_totals(self):
        counts = SynthConfig(seed=0).frequencies.tolist()
        assert sum(counts) == 1020
        introverts = sum(c for t, c in zip(ALL_TYPES, counts) if t[0] == "i")
        assert introverts == 820

    def test_reference_counts(self):
        counts = SynthConfig(seed=0).frequencies
        assert counts[TYPE_INDEX["intp"]] == 221
        assert counts[TYPE_INDEX["intj"]] == 160
        assert counts[TYPE_INDEX["infj"]] == 134
        assert counts[TYPE_INDEX["infp"]] == 111
        assert counts[TYPE_INDEX["istp"]] == 81
        assert counts[TYPE_INDEX["esfj"]] == 3
        assert sum(SURVEY_TYPE_COUNTS.values()) == 1020


class TestTypeFrequencyTable:
    """The per-type frequency table: ``SynthConfig`` turns a ``{type: count}``
    mapping into one read-only int64 vector in ``ALL_TYPES`` order, and
    ``freq`` ranks a survey's counts."""

    def test_missing_types_default_to_zero(self):
        counts = SynthConfig(seed=0, frequencies={"intp": 5}).frequencies
        assert counts.dtype == np.int64 and counts.shape == (16,)
        assert counts[TYPE_INDEX["intp"]] == 5
        assert counts[TYPE_INDEX["esfj"]] == 0
        assert counts.sum() == 5

    def test_items_canonical_order(self):
        frequencies = {"istp": 1, "enfj": 2}
        counts = SynthConfig(seed=0, frequencies=frequencies).frequencies
        assert counts.tolist() == [frequencies.get(t, 0) for t in ALL_TYPES]
        with pytest.raises(ValueError):
            counts[0] = 1

    def test_string_and_enum_keys(self):
        counts = SynthConfig(seed=0, frequencies={"intp": 3, "ENFJ": 4, "iStP": 5}).frequencies
        assert counts[TYPE_INDEX["intp"]] == 3
        assert counts[TYPE_INDEX["enfj"]] == 4
        assert counts[TYPE_INDEX["istp"]] == 5

    def test_negative_count_rejected(self):
        with pytest.raises(Error, match="^negative count for intp: -1$"):
            SynthConfig(seed=0, frequencies={"intp": -1})

    def test_conflicting_spellings_rejected(self):
        with pytest.raises(Error, match="^repeated type in frequency table: intp$"):
            SynthConfig(seed=0, frequencies={"intp": 1, "INTP": 2})

    def test_unknown_key_rejected(self):
        with pytest.raises(Error, match="^not a valid personality code: 'wxyz'$"):
            SynthConfig(seed=0, frequencies={"wxyz": 1})

    def test_ranked_descending_with_alpha_ties(self, tmp_path, capsys):
        frequencies = {"intp": 4, "enfj": 9, "istp": 4, "esfj": 1}
        dataset = generate_synthetic(SynthConfig(seed=0, frequencies=frequencies))
        lines = _freq(tmp_path, capsys, dataset)
        ranked = [line.split(",") for line in lines[4:]]
        assert [t for t, _ in ranked[:4]] == ["enfj", "intp", "istp", "esfj"]
        assert len(ranked) == 16
        assert ranked[-1][1] == "0"


class TestPlantedMeans:
    def test_planted_shape_and_bounds(self):
        means = planted_means(default_catalog())
        assert means.shape == (16, 121)
        assert np.all(means >= 1.0)
        assert np.all(means <= 5.0)

    def test_planted_is_deterministic(self):
        cat = default_catalog()
        assert np.array_equal(planted_means(cat), planted_means(cat))

    def test_planted_profiles_differ_between_types(self):
        means = planted_means(default_catalog())
        assert not np.array_equal(means[0], means[1])

    def test_planted_nonfiction_preference(self):
        cat = default_catalog()
        means = planted_means(cat)
        psych = cat.index("Psychology")
        relig = cat.index("Religion & Spirituality")
        for code in ("intp", "intj", "infj", "infp"):
            row = TYPE_INDEX[code]
            assert means[row, psych] == 5.0
            assert means[row, relig] == 2.0


class TestSynthConfig:
    def test_defaults(self):
        config = SynthConfig(seed=1)
        assert config.frequencies.sum() == 1020
        assert len(config.catalog) == 121

    def test_seed_range_enforced(self):
        SynthConfig(seed=2**64 - 1)
        seed = SynthConfig(seed=np.uint64(2**64 - 1)).seed
        assert type(seed) is int and seed == 2**64 - 1
        with pytest.raises(Error, match="^seed must be an unsigned 64-bit integer, got -1$"):
            SynthConfig(seed=-1)
        with pytest.raises(Error, match=f"^seed must be an unsigned 64-bit integer, got {2**64}$"):
            SynthConfig(seed=2**64)

    @pytest.mark.parametrize("seed, kind", [(2.5, "float"), (True, "bool"), ("3", "str")])
    def test_non_integer_seed_rejected(self, seed, kind):
        with pytest.raises(Error, match=f"^seed must be an integer, got {kind}$"):
            SynthConfig(seed=seed)

    def test_replace_keeps_frequencies(self):
        config = SynthConfig(seed=1, frequencies={"intp": 3, "enfj": 2})
        other = replace(config, seed=2)
        assert other.frequencies.tolist() == config.frequencies.tolist()
        assert not other.frequencies.flags.writeable
        assert len(generate_synthetic(other)) == 5

    def test_empty_frequencies_rejected(self):
        for frequencies in ({}, {"intp": 0}):
            with pytest.raises(Error, match="at least one respondent"):
                SynthConfig(seed=1, frequencies=frequencies)


class TestGenerateSynthetic:
    def test_honors_frequencies_exactly(self):
        config = SynthConfig(seed=0, frequencies={"intp": 5, "esfp": 2})
        observed = _counts(generate_synthetic(config))
        assert observed.tolist() == config.frequencies.tolist()
        assert observed[TYPE_INDEX["intp"]] == 5
        assert observed[TYPE_INDEX["esfp"]] == 2
        assert observed.sum() == 7

    def test_reference_dataset_shape(self, survey_dataset):
        assert len(survey_dataset) == 1020
        observed = _counts(survey_dataset)
        for code, count in SURVEY_TYPE_COUNTS.items():
            assert observed[TYPE_INDEX[code]] == count

    def test_id_format_and_grouping(self):
        ds = generate_synthetic(SynthConfig(seed=1, frequencies={"enfj": 2, "intp": 2}))
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
        message = (
            r"^header does not match catalog \(123 columns expected\); "
            r"got \['id', 'mbti', 'fiction_00', 'fiction_01'\]\.\.\.$"
        )
        with pytest.raises(Error, match=message):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_bad_mbti(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        cells = lines[1].split(",")
        cells[1] = "intx"
        lines[1] = ",".join(cells)
        message = "^line 2, column 'mbti': not a valid personality code: 'intx'$"
        with pytest.raises(Error, match=message):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize(
        "spelling",
        ["intp", "INTP", "iNtP", " intp", "intp ", "İNTP", "ıntp", "int", "intpp", "",
         "intp\u200b"],
    )
    def test_load_follows_type_code(self, tmp_path, small_dataset, spelling):
        """A one-row survey loads exactly when ``type_code`` accepts its type
        cell, and with the code ``type_code`` gives."""
        lines = self._lines(small_dataset)[:2]
        cells = lines[1].split(",")
        cells[1] = spelling
        lines[1] = ",".join(cells)
        path = self._write(tmp_path, lines)
        try:
            code = type_code(spelling)
        except Error as exc:
            message = f"^line 2, column 'mbti': {re.escape(str(exc))}$"
            with pytest.raises(Error, match=message):
                load_dataset(path)
        else:
            assert load_dataset(path).type_codes.tolist() == [code]

    @pytest.mark.parametrize("bad", ["7", "-1", "3.5", "x", ""])
    def test_load_rejects_bad_rating(self, tmp_path, small_dataset, bad):
        lines = self._lines(small_dataset)
        prefix = ",".join(lines[1].split(",")[:2])
        rest = lines[1].split(",")[3:]
        lines[1] = ",".join([prefix, bad, *rest])
        message = (
            "rating out of range: 7" if bad == "7"
            else f"ratings must be integers 0\\.\\.6, got {re.escape(repr(bad))}"
        )
        with pytest.raises(Error, match=f"^line 2, column 'fiction_00': {message}$"):
            load_dataset(self._write(tmp_path, lines))

    def test_load_reports_first_of_two_errors(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        cells = lines[1].split(",")
        cells[5] = "x"
        lines[1] = ",".join(cells)
        lines[3] = ",".join(lines[3].split(",")[:-1])
        message = r"^line 2, column 'fiction_03': ratings must be integers 0\.\.6, got 'x'$"
        with pytest.raises(Error, match=message):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_duplicate_id(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines.append(lines[1])
        rid = lines[1].split(",")[0]
        message = f"^line {len(lines)}: duplicate respondent id '{rid}'$"
        with pytest.raises(Error, match=message):
            load_dataset(self._write(tmp_path, lines))

    def test_load_rejects_bad_id_charset(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[1] = "bad id" + lines[1][lines[1].index(","):]
        message = r"^line 2: respondent id must match \[A-Za-z0-9_-\]\+, got 'bad id'$"
        with pytest.raises(Error, match=message):
            load_dataset(self._write(tmp_path, lines))

    def test_validate_rejects_id_ending_in_newline(self, tmp_path, capsys):
        """``$`` would match before the final newline of a quoted id."""
        lines = dataset_to_csv(generate_synthetic(SynthConfig(seed=7))).splitlines()
        lines[1] = '"ab\n"' + lines[1][lines[1].index(","):]
        path = self._write(tmp_path, lines)
        assert run(["validate", "--input", str(path)]) == 1
        message = r"line 2: respondent id must match [A-Za-z0-9_-]+, got 'ab\n'"
        assert capsys.readouterr().err == f"typetaste: error: {message}\n"

    def test_dataset_refuses_id_ending_in_newline(self):
        """The writer never meets an id it cannot write: the dataset refuses it."""
        message = r"^respondent id must match \[A-Za-z0-9_-\]\+, got 'ab\\n'$"
        with pytest.raises(Error, match=message):
            Dataset.from_columns(default_catalog(), ["ab\n"], [0], np.zeros((1, 121), np.int8))

    def test_load_rejects_short_row(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[1] = ",".join(lines[1].split(",")[:-1])
        with pytest.raises(Error, match="^line 2: expected 123 columns, got 122$"):
            load_dataset(self._write(tmp_path, lines))

    def test_load_reports_line_number(self, tmp_path, small_dataset):
        lines = self._lines(small_dataset)
        lines[3] = ",".join(lines[3].split(",")[:-1])
        with pytest.raises(Error, match="^line 4: expected 123 columns, got 122$"):
            load_dataset(self._write(tmp_path, lines))


def _awkward_catalog() -> GenreCatalog:
    """The default catalog with a genre name the csv module must quote."""
    genres = list(default_catalog().genres)
    genres[CATEGORY_SLICES["music"].start] = 'Jazz, Swing & "Big Band"'
    return GenreCatalog(genres)


class TestSynthAgainstOracles:
    """One normal draw for all rows and the byte-array writer give what a
    draw per type block and the csv module's row writer give."""

    @pytest.mark.parametrize(
        "frequencies",
        [
            dict(SURVEY_TYPE_COUNTS),
            {t: 10 * count for t, count in SURVEY_TYPE_COUNTS.items()},
            {"enfj": 0, "intp": 7, "esfj": 3, "istp": 0},
            {"enfp": 2, "istp": 5},
            {"istj": 1},
            {"infp": 40},
        ],
        ids=["paper", "paper-x10", "zero-counts", "zero-first-type", "one-respondent",
             "one-type"],
    )
    def test_same_dataset_and_bytes(self, tmp_path, frequencies):
        path = tmp_path / "survey.csv"
        for seed in range(20):
            config = SynthConfig(seed=seed, frequencies=frequencies)
            expected = generate_synthetic_oracle(config)
            dataset = generate_synthetic(config)
            assert dataset == expected, seed
            text = dataset_to_csv(dataset)
            assert text == dataset_to_csv_oracle(expected), seed
            save_dataset(dataset, path)
            assert path.read_bytes() == text.encode("utf-8")
            assert load_dataset(path) == dataset

    def test_awkward_header(self, tmp_path):
        catalog = _awkward_catalog()
        config = SynthConfig(seed=3, frequencies={"intj": 4, "esfp": 2}, catalog=catalog)
        dataset = generate_synthetic(config)
        assert dataset == generate_synthetic_oracle(config)
        text = dataset_to_csv(dataset)
        assert '"Jazz, Swing & ""Big Band"""' in text.split("\n", 1)[0]
        assert text == dataset_to_csv_oracle(dataset)
        path = tmp_path / "survey.csv"
        save_dataset(dataset, path)
        assert load_dataset(path, catalog) == dataset

    @pytest.mark.parametrize(
        "types",
        [["intp"], ["esfj", "intj", "enfp"], [t for t in ALL_TYPES if t != "intp"], []],
        ids=["one", "three", "fifteen", "none"],
    )
    def test_restricted_types(self, tmp_path, survey_dataset, types):
        """Subsets, including the empty one, whose file is the header alone."""
        subset = survey_dataset.restrict_types(types)
        text = dataset_to_csv(subset)
        assert text == dataset_to_csv_oracle(subset)
        assert text.count("\n") == len(subset) + 1
        path = tmp_path / "survey.csv"
        save_dataset(subset, path)
        assert load_dataset(path) == subset

    def test_hand_made_rows(self):
        """Ids of any length, every type and every rating in one dataset."""
        ids = ["a", "B-9_", "x" * 300, *(f"r{i}" for i in range(16))]
        codes = [0, 15, 8, *range(16)]
        ratings = np.arange(len(ids) * 121).reshape(len(ids), 121) % 7
        dataset = Dataset.from_columns(default_catalog(), ids, codes, ratings)
        assert dataset_to_csv(dataset) == dataset_to_csv_oracle(dataset)


class TestSkewSummary:
    """The skew summary ``freq`` prints above its ranked counts."""

    def test_reference_profile(self, tmp_path, capsys, survey_dataset):
        lines = _freq(tmp_path, capsys, survey_dataset)
        assert lines[:3] == [
            "# total=1020",
            f"# introvert_fraction={820 / 1020:.6f}",
            "# top4=intp,intj,infj,infp",
        ]
        assert lines[4:8] == ["intp,221", "intj,160", "infj,134", "infp,111"]

    def test_tie_breaks_alphabetically(self, tmp_path, capsys):
        frequencies = {"istp": 4, "enfj": 4, "intp": 9}
        dataset = generate_synthetic(SynthConfig(seed=0, frequencies=frequencies))
        lines = _freq(tmp_path, capsys, dataset)
        assert lines[2] == "# top4=intp,enfj,istp,enfp"

    def test_empty_table_raises(self, tmp_path, capsys, small_dataset):
        path = tmp_path / "empty.csv"
        path.write_text(dataset_to_csv(small_dataset).splitlines()[0] + "\n")
        assert run(["freq", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "typetaste: error: cannot summarize an empty frequency table\n"

    def test_all_extrovert_fraction(self, tmp_path, capsys):
        frequencies = {"enfj": 2, "estp": 2}
        dataset = generate_synthetic(SynthConfig(seed=0, frequencies=frequencies))
        lines = _freq(tmp_path, capsys, dataset)
        assert lines[1] == "# introvert_fraction=0.000000"


class TestLoaderAgainstOracle:
    """``load_dataset`` reads quote-free files without the csv module and any
    other file through it; the row-by-row reader is the reference for both."""

    @pytest.fixture(scope="class")
    def lines(self, survey_dataset):
        lines = dataset_to_csv(survey_dataset).splitlines()
        assert any(",0," in line for line in lines[1:])
        return lines

    def _bases(self, lines):
        """The survey as ``dataset_to_csv`` writes it, which is read in bulk,
        and with odd but valid cells, which the row rule reads."""
        return {"clean": list(lines), "odd": self._odd_but_valid(lines)}

    def _write(self, tmp_path, lines, ending="\n", final=True):
        """The lines as a file; a lone surrogate in them stands for the byte
        it escapes, which is not UTF-8."""
        path = tmp_path / "survey.csv"
        text = ending.join(lines) + (ending if final else "")
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
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
        for (name, base), variant in product(
            self._bases(lines).items(), ["as-written", "unterminated", "quoted", "header-only"]
        ):
            out = list(base)
            if variant == "quoted":
                out[7] = ",".join(f'"{cell}"' for cell in out[7].split(","))
            elif variant == "header-only":
                out = out[:1]
            path = self._write(tmp_path, out, ending, final=variant != "unterminated")
            ids, types, matrix = load_dataset_oracle(path)
            loaded = load_dataset(path)
            assert loaded.respondent_ids == ids, (name, variant)
            assert tuple(ALL_TYPES[c] for c in loaded.type_codes.tolist()) == types
            assert np.array_equal(loaded.rating_matrix(), matrix)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_header_only_validates(self, tmp_path, capsys, lines, ending):
        path = self._write(tmp_path, lines[:1], ending)
        assert run(["validate", "--input", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: 0 records, 121 genre columns")

    @pytest.mark.parametrize(
        "edits",
        [
            [(700, 90, "x")],
            [(5, 2, "٣")],
            [(5, 2, " 3")],
            [(5, 2, "+3")],
            [(5, 40, "9" * 30)],
            [(5, 1, "intx")],
            [(6, 1, "xntp"), (8, 3, "x")],
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
            [(5, 0, '"a,b"')],
            [(5, 3, '"3"'), (9, 4, "x")],
            [(5, 4, "3\r3")],
            [(5, 40, "9" * 200000)],
            [(2, 5, "8"), (9, 0, "a" * 200000)],
            [(5, 0, "ab\udcffcd")],
            [(2, 5, "x"), (9, 0, "ab\udcffcd")],
            [(5, None, "merged")],
            [(5, None, "short"), (5, 3, '"3,3"')],
            [(30, 0, "dup"), (30, None, "no-ratings")],
            [(5, None, "   ")],
            [(5, 0, "ab\x0bcd")],
            [(5, 0, "ab\u2028cd")],
            [(-1, 5, "x"), (None, None, "unterminated")],
            [(-1, None, "short"), (None, None, "unterminated")],
            [(5, 0, '"ab\n"')],
        ],
    )
    def test_same_first_error(self, tmp_path, lines, edits):
        final = (None, None, "unterminated") not in edits
        for name, out in self._bases(lines).items():
            while not (final or out[-1]):
                out.pop()
            for row, column, value in edits:
                if row is None:
                    continue
                cells = out[row].split(",")
                if value == "short":
                    cells = cells[:-1]
                elif value == "long":
                    cells.append("3")
                elif value == "merged":
                    cells[10:12] = [cells[10] + "5" + cells[11]]
                elif value == "no-ratings":
                    cells[2:] = [""] * (len(cells) - 2)
                elif value == "dup":
                    cells[column] = out[1].split(",")[0]
                elif column is None:
                    cells = [value]
                else:
                    cells[column] = value
                out[row] = ",".join(cells)
            path = self._write(tmp_path, out, final=final)
            with pytest.raises(Error) as expected:
                load_dataset_oracle(path)
            with pytest.raises(Error) as found:
                load_dataset(path)
            assert str(found.value) == str(expected.value), name

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "\r\n", "\n\n", "   \n", "respondent_id\n", '"respondent_id,mbti",x\n',
         "\udcff\n", '"' + "x" * 200000 + '"\n'],
        ids=["empty", "blank", "blank-crlf", "two-blank", "spaces", "short", "quoted-comma",
             "not-utf8", "past-limit"],
    )
    def test_same_header_error(self, tmp_path, text):
        path = tmp_path / "survey.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(Error) as expected:
            load_dataset_oracle(path)
        with pytest.raises(Error) as found:
            load_dataset(path)
        assert str(found.value) == str(expected.value)

    def test_row_error_before_csv_error(self, tmp_path):
        """A bad rating on line 3 is reported before a field past the csv
        module's limit on line 10, as the row-by-row reader reports it."""
        lines = dataset_to_csv(generate_synthetic(SynthConfig(seed=7))).splitlines()
        cells = lines[2].split(",")
        cells[5] = "8"
        lines[2] = ",".join(cells)
        lines[9] = "a" * 200000 + lines[9][lines[9].index(","):]
        path = self._write(tmp_path, lines)
        message = "^line 3, column 'fiction_03': rating out of range: 8$"
        with pytest.raises(Error, match=message):
            load_dataset_oracle(path)
        with pytest.raises(Error, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_written_form_needs_no_csv_module(self, tmp_path, monkeypatch, lines, ending,
                                              survey_dataset):
        """Files in the form ``dataset_to_csv`` writes are read in bulk."""
        path = self._write(tmp_path, lines, ending)

        def refuse(*args, **kwargs):
            raise AssertionError("the csv module read a file in the written form")

        monkeypatch.setattr(csv, "reader", refuse)
        assert load_dataset(path) == survey_dataset
