import csv
import hashlib
import json
import platform
import re

import numpy as np
import pytest

from oracles import dataset_to_csv_oracle, generate_synthetic_oracle
from test_acceptance import _mask_time_column, run_in_child
from typetaste import ingest, kmeans, pca
from typetaste.cli import run
from typetaste.domain import default_catalog, save_catalog


TOO_LARGE = "respondents x 121 genres exceed the largest array numpy can hold"


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """Dataset file for CLI tests: 4 types, 56 respondents."""
    path = tmp_path_factory.mktemp("cli") / "survey.csv"
    frequencies = {"intp": 18, "intj": 14, "enfp": 14, "estj": 10}
    dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=303, frequencies=frequencies))
    ingest.save_dataset(dataset, path)
    return path


class TestSynth:
    def test_paper_frequencies_to_file(self, tmp_path):
        out = tmp_path / "survey.csv"
        code = run(["synth", "--paper-frequencies", "--seed", "7", "-o", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1021
        assert len(lines[0].split(",")) == 123

    def test_freq_file(self, tmp_path):
        freq = tmp_path / "freq.json"
        freq.write_text(json.dumps({"intp": 3, "ENFJ": 2}))
        out = tmp_path / "survey.csv"
        assert run(["synth", "--freq-file", str(freq), "--seed", "1", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("source", ["paper", "freq-file"])
    def test_bytes_match_oracles(self, tmp_path, capsys, source):
        """stdout and ``-o`` carry what the per-type draw and the csv module's
        row writer give for the same config."""
        if source == "paper":
            argv = ["synth", "--paper-frequencies", "--seed", "7"]
            frequencies = ingest.SURVEY_TYPE_COUNTS
        else:
            frequencies = {"ISTP": 9, "enfj": 4, "esfj": 0, "intp": 30}
            freq = tmp_path / "freq.json"
            freq.write_text(json.dumps(frequencies))
            argv = ["synth", "--freq-file", str(freq), "--seed", "12"]
        config = ingest.SynthConfig(seed=int(argv[-1]), frequencies=frequencies)
        expected = dataset_to_csv_oracle(generate_synthetic_oracle(config))
        assert run(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "survey.csv"
        assert run(argv + ["-o", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_requires_exactly_one_source(self, tmp_path):
        freq = tmp_path / "freq.json"
        freq.write_text(json.dumps({"intp": 3}))
        assert run(["synth"]) == 2
        assert run(["synth", "--paper-frequencies", "--freq-file", str(freq)]) == 2

    def test_stdout_default(self, capsys):
        assert run(["synth", "--freq-file", "/nonexistent.json"]) == 1
        capsys.readouterr()

    def test_invalid_freq_json(self, tmp_path, capsys):
        freq = tmp_path / "freq.json"
        freq.write_text("not json")
        assert run(["synth", "--freq-file", str(freq)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "count",
        ['"abc"', "null", "[1]", "1e999", "3.7", "true"],
        ids=["string", "null", "list", "overflow", "fraction", "bool"],
    )
    def test_non_integer_count_is_data_error(self, tmp_path, capsys, count):
        freq = tmp_path / "freq.json"
        freq.write_text('{"intp": 3, "enfj": %s}' % count)
        assert run(["synth", "--freq-file", str(freq)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("typetaste: error: count for enfj must be an integer")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"intp": 3, "enfj": -4}', "negative count for enfj: -4"),
            ('{"intp": 3, "INTP": 2}', "repeated type in frequency table: intp"),
            ('{"intp": 3, "wxyz": 2}', "not a valid personality code: 'wxyz'"),
            ('{"intp": 0}', "frequency table must have at least one respondent"),
            ("[3, 2]", "frequencies must map types to counts, got list"),
            # Without the size check numpy still refuses these two before it
            # allocates, so a regression cannot exhaust memory here.  Counts
            # from about 10**7 to 10**15 would allocate and stay untested.
            (f'{{"intp": {10**30}}}', f"frequency table too large: {10**30} {TOO_LARGE}"),
            (f'{{"intp": {10**17}}}', f"frequency table too large: {10**17} {TOO_LARGE}"),
        ],
        ids=["negative", "repeated", "unknown", "empty", "array", "1e30", "1e17"],
    )
    def test_bad_count_is_data_error(self, tmp_path, capsys, doc, message):
        freq = tmp_path / "freq.json"
        freq.write_text(doc)
        assert run(["synth", "--freq-file", str(freq)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"typetaste: error: {message}\n"

    def test_bad_seed_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--paper-frequencies", "--seed", "-3"]) == 2
        assert run(["synth", "--paper-frequencies", "--seed", "nope"]) == 2
        assert run(["synth", "--paper-frequencies", "--seed", str(2**64)]) == 2
        capsys.readouterr()


class TestValidate:
    def test_ok(self, small_csv, capsys):
        assert run(["validate", "--input", str(small_csv)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "56 records" in out

    def test_corrupted_file(self, tmp_path, small_csv, capsys):
        bad = tmp_path / "bad.csv"
        lines = small_csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[5] = "9"
        lines[1] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        assert run(["validate", "--input", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["survey", "freq-file", "catalog"])
    def test_not_utf8_is_data_error(self, tmp_path, small_csv, capsys, case):
        bad = tmp_path / "latin1.csv"
        if case == "survey":
            raw = small_csv.read_bytes()
            # In the last row, past the first chunk a text-mode reader decodes.
            offset = raw.rindex(b"\n", 0, len(raw) - 1) + 2
            assert offset > 8192
            argv = ["validate", "--input", str(bad)]
        elif case == "freq-file":
            raw = json.dumps({"intp": 3, "enfj": 2}).encode()
            offset = raw.index(b"enfj")
            argv = ["synth", "--freq-file", str(bad)]
        else:
            save_catalog(default_catalog(), bad)
            raw = bad.read_bytes()
            offset = raw.index(b"music_07")
            argv = ["validate", "--input", str(small_csv), "--catalog", str(bad)]
        bad.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1:])
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("typetaste: error:")
        assert str(bad) in lines[0]
        assert f"byte 0xff at offset {offset}" in lines[0]

    @pytest.mark.parametrize("case", ["survey", "catalog"])
    def test_oversized_field_is_data_error(self, tmp_path, small_csv, capsys, case):
        """A cell longer than ``csv.field_size_limit()`` is reported with
        its file and line, not as a csv module traceback."""
        bad = tmp_path / "huge.csv"
        limit = csv.field_size_limit()
        if case == "survey":
            lines = small_csv.read_text().splitlines()
            cells = lines[2].split(",")
            cells[5] = "3" * (limit + 1)
            lines[2] = ",".join(cells)
            bad.write_text("\n".join(lines) + "\n")
            argv, lineno = ["validate", "--input", str(bad)], 3
        else:
            save_catalog(default_catalog(), bad)
            text = bad.read_text()
            lineno = text[:text.index("music_07")].count("\n") + 1
            bad.write_text(text.replace("music_07", "x" * (limit + 1)))
            argv = ["validate", "--input", str(small_csv), "--catalog", str(bad)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"typetaste: error: {bad}: line {lineno}: field larger than field limit ({limit})\n"
        )

    def test_bad_type_cell_names_line_and_column(self, tmp_path, small_csv, capsys):
        bad = tmp_path / "bad.csv"
        lines = small_csv.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "xntp"
        lines[5] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        assert run(["validate", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "typetaste: error: line 6, column 'mbti': not a valid personality code: 'xntp'\n"
        )

    def test_missing_file(self, capsys):
        assert run(["validate", "--input", "/no/such/file.csv"]) == 1
        capsys.readouterr()

    def test_explicit_catalog(self, tmp_path, small_csv):
        cat_path = tmp_path / "catalog.csv"
        save_catalog(default_catalog(), cat_path)
        assert run(["validate", "--input", str(small_csv), "--catalog", str(cat_path)]) == 0


class TestCluster:
    def test_csv_output(self, tmp_path, small_csv):
        out = tmp_path / "assign.csv"
        code = run([
            "cluster", "--input", str(small_csv), "--k", "4",
            "--init", "kmeans++", "--restarts", "2", "--seed", "5", "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "respondent_id,cluster"
        assert len(lines) == 57
        clusters = {int(line.split(",")[1]) for line in lines[1:]}
        assert clusters <= set(range(4))

    def test_json_output_with_pca(self, tmp_path, small_csv):
        out = tmp_path / "result.json"
        code = run([
            "cluster", "--input", str(small_csv), "--k", "3", "--init", "random",
            "--pca-dims", "2", "--restarts", "2", "--seed", "5",
            "--format", "json", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "pca-based"
        assert doc["k"] == 3
        assert len(doc["assignments"]) == 56
        assert doc["elapsed_seconds"] > 0

    def test_bad_init_is_usage_error(self, small_csv, capsys):
        assert run(["cluster", "--input", str(small_csv), "--init", "ward"]) == 2
        capsys.readouterr()

    def test_k_larger_than_dataset_is_data_error(self, small_csv, capsys):
        assert run(["cluster", "--input", str(small_csv), "--k", "100"]) == 1
        capsys.readouterr()


class TestEvaluate:
    def test_csv_report(self, tmp_path, small_csv):
        out = tmp_path / "report.csv"
        code = run([
            "evaluate", "--input", str(small_csv), "--k", "4",
            "--category", "movies", "--category", "video-games",
            "--restarts", "2", "--seed", "9", "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,time,homo,compl,v-meas,ARI,AMI,Silhouette"
        assert lines[1] == "# category=movies"
        assert sum(1 for l in lines if l.startswith("#")) == 2
        assert sum(1 for l in lines if not l.startswith("#")) == 1 + 6

    def test_one_cluster_is_data_error(self, small_csv, capsys):
        code = run([
            "evaluate", "--input", str(small_csv), "--k", "1",
            "--category", "movies", "--restarts", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "typetaste: error: silhouette needs at least 2 distinct clusters\n"
        )

    def test_method_selection_and_alias(self, tmp_path, small_csv):
        out = tmp_path / "report.csv"
        code = run([
            "evaluate", "--input", str(small_csv), "--k", "3",
            "--method", "pca", "--category", "video-games",
            "--restarts", "2", "--seed", "9", "-o", str(out),
        ])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 1
        assert rows[0].startswith("pca-based,")

    def test_json_report(self, tmp_path, small_csv):
        out = tmp_path / "report.json"
        code = run([
            "evaluate", "--input", str(small_csv), "--k", "3",
            "--method", "kmeans++", "--category", "movies",
            "--restarts", "2", "--seed", "9", "--format", "json", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["k"] == 3
        assert list(doc["categories"]) == ["movies"]
        row = doc["categories"]["movies"][0]
        assert row["method"] == "kmeans++"
        assert 0.0 <= row["homo"] <= 1.0

    def test_unknown_category_is_data_error(self, small_csv, capsys):
        assert run([
            "evaluate", "--input", str(small_csv), "--category", "poetry",
        ]) == 1
        assert capsys.readouterr().err == "typetaste: error: unknown category: 'poetry'\n"

    def test_repeated_category_is_data_error(self, small_csv, capsys):
        assert run([
            "evaluate", "--input", str(small_csv),
            "--category", "movies", "--category", "movies",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "typetaste: error: repeated category: 'movies'\n"
        assert run([
            "evaluate", "--input", str(small_csv),
            "--method", "pca", "--method", "pca-based",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "typetaste: error: repeated method: 'pca-based'\n"

    def test_unknown_method_is_usage_error(self, small_csv, capsys):
        assert run([
            "evaluate", "--input", str(small_csv), "--method", "spectral",
        ]) == 2
        capsys.readouterr()


class TestPairtable:
    def test_table_output(self, tmp_path, small_csv):
        out = tmp_path / "pair.csv"
        code = run([
            "pairtable", "--input", str(small_csv), "--type", "INTP",
            "--genre-a", "Psychology", "--genre-b", "Religion & Spirituality",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# type=intp"
        assert lines[3] == "b=0,b=1,b=2,b=3,b=4,b=5,b=6"
        counts = [[int(x) for x in line.split(",")] for line in lines[4:]]
        assert len(counts) == 7
        assert sum(sum(row) for row in counts) == 18  # intp respondents

    def test_unknown_genre_is_data_error(self, small_csv, capsys):
        assert run([
            "pairtable", "--input", str(small_csv), "--type", "intp",
            "--genre-a", "Alchemy", "--genre-b", "Psychology",
        ]) == 1
        capsys.readouterr()

    def test_invalid_type_is_usage_error(self, small_csv, capsys):
        assert run([
            "pairtable", "--input", str(small_csv), "--type", "wxyz",
            "--genre-a", "Psychology", "--genre-b", "Religion & Spirituality",
        ]) == 2
        capsys.readouterr()


class TestRecommend:
    def test_type_text_output(self, small_csv, capsys):
        code = run([
            "recommend", "--input", str(small_csv), "--type", "intp", "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Top genres for intp (type-profile):")
        assert len(out.splitlines()) == 6

    def test_type_json_output(self, tmp_path, small_csv):
        out = tmp_path / "rec.json"
        code = run([
            "recommend", "--input", str(small_csv), "--type", "intj",
            "--top", "3", "--format", "json", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["mbti"] == "intj"
        assert len(doc["items"]) == 3

    def test_user_row_with_blend(self, small_csv, capsys):
        code = run([
            "recommend", "--input", str(small_csv),
            "--user-row", "intp-000", "--blend", "0.8", "--top", "4",
        ])
        assert code == 0
        assert "(blended)" in capsys.readouterr().out

    def test_survey_without_rows_is_data_error(self, tmp_path, small_csv, capsys):
        empty = tmp_path / "header_only.csv"
        empty.write_text(small_csv.read_text().split("\n", 1)[0] + "\n")
        assert run(["recommend", "--input", str(empty), "--type", "intp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "typetaste: error: dataset has no respondents\n"

    def test_missing_selector_is_usage_error(self, small_csv, capsys):
        assert run(["recommend", "--input", str(small_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one of the arguments --type --user-row is required" in captured.err

    def test_both_selectors_is_usage_error(self, small_csv, capsys):
        assert run([
            "recommend", "--input", str(small_csv), "--type", "esfj", "--user-row", "intp-000",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_unknown_user_is_data_error(self, small_csv, capsys):
        assert run([
            "recommend", "--input", str(small_csv), "--user-row", "ghost-9",
        ]) == 1
        capsys.readouterr()

    def test_bad_blend_is_usage_error(self, small_csv, capsys):
        assert run([
            "recommend", "--input", str(small_csv), "--user-row", "intp-000", "--blend", "1.5",
        ]) == 2
        assert "blend must be within 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["type-first", "blend-first"])
    def test_blend_with_type_is_usage_error(self, small_csv, capsys, order):
        selector, blend = ["--type", "intp"], ["--blend", "0.2"]
        args = selector + blend if order == "type-first" else blend + selector
        assert run(["recommend", "--input", str(small_csv), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: typetaste recommend")
        assert captured.err.endswith(
            "typetaste recommend: error: argument --blend: only allowed with argument"
            " --user-row\n"
        )

    # sha256 and length of stdout on the seed-7 paper-frequencies survey.
    PINNED = {
        ("--type", "intp"): (
            583, "457b9152de674d5d3bd0d32d64e6ccbca05ab607443f4af24f83715a46d944c7"),
        ("--type", "intp", "--format", "json"): (
            1637, "5c9702fe03254551201a2312b2b838643066b251b3ef436615cfb9f39ffa18ff"),
        ("--user-row", "intp-007"): (
            616, "1da98609f57378c906d856c974322ed41f0eed119f5c0b60e71f36dcc5274388"),
        ("--user-row", "intp-007", "--format", "json"): (
            1669, "e9d41dd1b08aa78910fa247e4a3d9210610f5ff33af89ef06db190723365cf63"),
    }

    @pytest.mark.parametrize("args", list(PINNED), ids=" ".join)
    def test_stdout_bytes_pinned(self, tmp_path, capsys, args):
        survey = tmp_path / "survey.csv"
        assert run(["synth", "--paper-frequencies", "--seed", "7", "-o", str(survey)]) == 0
        assert run(["recommend", "--input", str(survey), *args]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert (len(out), hashlib.sha256(out).hexdigest()) == self.PINNED[args]

    def test_user_row_default_blend_is_half(self, small_csv, capsys):
        base = ["recommend", "--input", str(small_csv), "--user-row", "intp-000"]
        assert run(base) == 0
        default = capsys.readouterr().out
        assert run([*base, "--blend", "0.5"]) == 0
        assert capsys.readouterr().out == default


@pytest.mark.parametrize(
    "command", [["cluster"], ["evaluate"], ["scatter", "--with-clusters"]], ids=" ".join
)
def test_restarts_past_bound_is_one_error_line(small_csv, capsys, command):
    """A restart count past ``MAX_RESTARTS`` fails before any fit."""
    restarts = "1" + "0" * 30
    assert run([*command, "--input", str(small_csv), "--restarts", restarts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"typetaste: error: restarts must be at most 1000000, got {restarts}\n"


class TestPcaClusters:
    def test_cluster_and_scatter_fit_the_projection(self, tmp_path, small_csv):
        X = ingest.load_dataset(small_csv).feature_matrix()
        config = kmeans.KmeansConfig(k=4, seed=3, restarts=2)
        expected = kmeans.fit(pca.project(pca.fit_pca(X, 2), X), config).assignments.tolist()
        common = ["--input", str(small_csv), "--k", "4", "--seed", "3", "--restarts", "2"]
        out = tmp_path / "result.json"
        assert run(["cluster", *common, "--pca-dims", "2", "--format", "json",
                    "-o", str(out)]) == 0
        assert json.loads(out.read_text())["assignments"] == expected
        out = tmp_path / "scatter.csv"
        assert run(["scatter", *common, "--with-clusters", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(row[3]) for row in rows if row[4] == "0"] == expected


class TestScatter:
    def test_2d_export(self, tmp_path, small_csv):
        out = tmp_path / "scatter.csv"
        assert run(["scatter", "--input", str(small_csv), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pc1,pc2,mbti,cluster,is_centroid"
        assert len(lines) == 57
        assert all(line.split(",")[3] == "" for line in lines[1:])

    def test_3d_with_clusters(self, tmp_path, small_csv):
        out = tmp_path / "scatter.csv"
        code = run([
            "scatter", "--input", str(small_csv), "--dims", "3",
            "--with-clusters", "--k", "4", "--restarts", "2", "--seed", "3",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pc1,pc2,pc3,mbti,cluster,is_centroid"
        centroid_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(centroid_rows) == 4
        assert len(lines) == 1 + 56 + 4

    def test_type_filter(self, tmp_path, small_csv):
        out = tmp_path / "scatter.csv"
        code = run([
            "scatter", "--input", str(small_csv), "--types", "intp,intj",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 32  # 18 intp + 14 intj
        assert {line.split(",")[2] for line in lines} == {"intp", "intj"}

    def test_type_filter_keeping_nothing_is_data_error(self, tmp_path, small_csv, capsys):
        out = tmp_path / "scatter.csv"
        argv = ["scatter", "--input", str(small_csv), "--types", "esfj", "-o", str(out)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "typetaste: error: no scatter rows to serialize"
        ]
        assert not out.exists()

    def test_bad_dims_is_usage_error(self, small_csv, capsys):
        assert run(["scatter", "--input", str(small_csv), "--dims", "5"]) == 2
        capsys.readouterr()


class TestFreq:
    def test_counts_and_summary(self, tmp_path, small_csv):
        out = tmp_path / "freq.csv"
        assert run(["freq", "--input", str(small_csv), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# total=56"
        assert lines[1].startswith("# introvert_fraction=0.571429")
        assert lines[2] == "# top4=intp,enfp,intj,estj"
        assert lines[3] == "mbti,count"
        assert lines[4] == "intp,18"
        data = dict(line.split(",") for line in lines[4:])
        assert data["intj"] == "14" and data["esfj"] == "0"
        assert len(lines) == 4 + 16


class TestDeterminism:
    def test_synth_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--paper-frequencies", "--seed", "99", "-o"]
        assert run(argv + [str(a)]) == 0
        assert run(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cluster_byte_identical(self, tmp_path, small_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "cluster", "--input", str(small_csv), "--k", "4",
            "--restarts", "2", "--seed", "42", "-o",
        ]
        assert run(argv + [str(a)]) == 0
        assert run(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("typetaste ")


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


# Genre names of the custom catalog by the default name they replace: one the
# csv module must quote, accented ones and names whose order differs by case.
CUSTOM_NAMES = {
    "music_00": 'Jazz, Swing & "Big Band"',
    "music_01": "Électronique",
    "music_02": "chanson française",
    "music_03": "ambient",
    "music_04": "Blues",
    "fiction_00": "zeta",
    "fiction_01": "Zeta",
    "games_00": "b",
    "games_01": "B",
}


@pytest.fixture(scope="module", params=["default", "custom"])
def pinned_survey(request, tmp_path_factory):
    """The catalog option (none for the default catalog) and the seed-7
    paper-frequencies survey generated with it."""
    directory = tmp_path_factory.mktemp(request.param)
    catalog = []
    if request.param == "custom":
        path = directory / "catalog.csv"
        save_catalog(default_catalog(), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[category, CUSTOM_NAMES.get(genre, genre)] for category, genre in csv.reader(fh)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        catalog = ["--catalog", str(path)]
    survey = directory / "survey.csv"
    assert run(["synth", "--paper-frequencies", "--seed", "7", *catalog, "-o", str(survey)]) == 0
    return request.param, catalog, survey


class TestOutputPinned:
    """Length and sha256 of stdout for valid inputs, on the default catalog
    and on a custom catalog file, recorded before the catalog's category
    layout became a constant of the package."""

    PAIRS = {
        "default": ("Psychology", "Religion & Spirituality"),
        "custom": ('Jazz, Swing & "Big Band"', "Électronique"),
    }
    ARGS = {
        "synth": [],
        "validate": [],
        "recommend": ["--type", "intp", "--format", "json"],
        "recommend-all": ["--type", "intp", "--format", "json", "--top", "121"],
        "pairtable": ["--type", "intp"],
        "evaluate": ["--category", "music", "--restarts", "2"],
    }
    PINNED = {
        ("default", "synth"): (
            262486, "e887231330965b397da5305c188c67361bef9d37fc42d2414ba83caa3f74e49c"),
        ("default", "validate"): (
            58, "9907dc1729c79339183ebd7813123df25d58214596b1486323b44d0b1e8cc773"),
        ("default", "recommend"): (
            1637, "5c9702fe03254551201a2312b2b838643066b251b3ef436615cfb9f39ffa18ff"),
        ("default", "recommend-all"): (
            19232, "c0fe161bad01bcb8e50cb1fafa72860ee26b1cd84bc8e1e2e33c8a7daa00127d"),
        ("default", "pairtable"): (
            202, "02d1993bd536c5cb62c5c1fe46cae6b7b05bac536c0e5254a0e34c9d0a037505"),
        ("default", "evaluate"): (
            203, "2b055369009c8d8fc9cd64d5d2db5a2d084b07e57ec6fa7996aecec3b3eace3e"),
        ("custom", "synth"): (
            262491, "34535089cfe1a511d25ba33428631e949fda2d91a2f06301a0ae2805b31c20e2"),
        ("custom", "validate"): (
            58, "9907dc1729c79339183ebd7813123df25d58214596b1486323b44d0b1e8cc773"),
        ("custom", "recommend"): (
            1637, "5c9702fe03254551201a2312b2b838643066b251b3ef436615cfb9f39ffa18ff"),
        ("custom", "recommend-all"): (
            19242, "8d161790e5fa7dabe91c21847c1d40678ec6708947464c241b1ee490cd9d9c2e"),
        ("custom", "pairtable"): (
            205, "ce4ef4d02986a458ddf1c03fbb09a1638436e9c52922478484d2df9a03869974"),
        ("custom", "evaluate"): (
            202, "1a54f019aaf50ff59659c80273a603302d8bdb9d4cca6bdf29f3b23383e80d43"),
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_stdout_bytes_pinned(self, capsys, pinned_survey, command):
        name, catalog, survey = pinned_survey
        if command == "synth":
            argv = ["synth", "--paper-frequencies", "--seed", "7"]
        else:
            argv = [command.split("-")[0], "--input", str(survey)]
        argv += self.ARGS[command] + catalog
        if command == "pairtable":
            argv += ["--genre-a", self.PAIRS[name][0], "--genre-b", self.PAIRS[name][1]]
        assert run(argv) == 0
        out = capsys.readouterr().out
        if command == "evaluate":
            out = _mask_time_column(out)
        out = out.encode("utf-8")
        assert (len(out), hashlib.sha256(out).hexdigest()) == self.PINNED[name, command]


def _blas_and_cpu() -> dict | None:
    """numpy's BLAS build and the CPU's SIMD features as numpy detects them:
    what decides the last bits of a BLAS or LAPACK result.  None where
    numpy cannot report them as data."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        return None
    return {
        "blas": [blas.get("name"), blas.get("version"), blas.get("openblas configuration")],
        "simd": simd,
        "machine": platform.machine(),
    }


def _fmt3(cell) -> str:
    """A number at the 3 decimals of the CSV report."""
    return f"{round(float(cell), 3):g}"


def _rounded(command: str, out: bytes) -> bytes:
    """The part of an output that does not depend on the BLAS build: the
    3-decimal report for ``evaluate``, the assignments for ``cluster``, and
    every cell at 3 decimals for ``scatter``."""
    if command == "evaluate":
        doc = json.loads(out)
        lines = ["method,time,homo,compl,v-meas,ARI,AMI,Silhouette"]
        for category, rows in doc["categories"].items():
            lines.append(f"# category={category}")
            for row in rows:
                scores = [_fmt3(v) for name, v in row.items() if name not in ("method", "time")]
                lines.append(",".join([row["method"], "_", *scores]))
        return "\n".join(lines).encode()
    if command == "cluster":
        doc = json.loads(out)
        return json.dumps([doc["k"], doc["assignments"]]).encode()
    header, *rows = out.decode().splitlines()
    lines = [header]
    for row in rows:
        cells = row.split(",")
        dims = len(cells) - 3
        lines.append(",".join([*map(_fmt3, cells[:dims]), *cells[dims:]]))
    return "\n".join(lines).encode()


def _mask_elapsed(out: bytes) -> bytes:
    """JSON output with its wall-clock fields set to 0."""
    return re.sub(rb'"(time|elapsed_seconds)": [^,\n]+', rb'"\1": 0', out)


@pytest.fixture(scope="module")
def child_reports(tmp_path_factory):
    """The output of each pinned command on its seed-7 survey, the paper's
    type frequencies times the command's scale, run in a child interpreter
    at one OpenBLAS thread, with its wall-clock fields masked."""
    directory = tmp_path_factory.mktemp("child")
    surveys = {}
    for scale in {scale for scale, _ in TestChildReportsPinned.ARGS.values()}:
        freq = directory / f"freq-{scale}.json"
        freq.write_text(json.dumps({t: n * scale for t, n in ingest.SURVEY_TYPE_COUNTS.items()}))
        surveys[scale] = directory / f"survey-{scale}.csv"
        argv = ["synth", "--freq-file", str(freq), "--seed", "7", "-o", str(surveys[scale])]
        assert run(argv) == 0
    return {
        name: _mask_elapsed(
            run_in_child([name.split("-")[0], "--input", str(surveys[scale]), *args]))
        for name, (scale, args) in TestChildReportsPinned.ARGS.items()
    }


class TestChildReportsPinned:
    """Length and sha256 of the JSON reports and the scatter export, each
    run in a child interpreter at ``OPENBLAS_NUM_THREADS=1``.  The seed-7
    pins were recorded before the data-matrix rule of kmeans, metrics and
    pca moved to one place, and the 4x ``evaluate`` pin before the
    expected-MI log-factorials moved from scipy into metrics.

    Two comparisons.  ``test_rounded_pinned`` always runs: it compares the
    3-decimal report, the assignments and the 3-decimal scatter cells.
    ``test_full_precision_pinned`` compares the full-precision bytes, which
    depend on the CPU's BLAS and LAPACK kernels, so it runs only where
    numpy's BLAS build and the CPU features match :attr:`RECORDED_ON`, and
    is skipped, with that reason, anywhere else.
    """

    # Each pin's survey scale and command-line arguments.  The 4x survey
    # (n = 4080) takes the expected-MI log-factorials past x = 1000.
    ARGS = {
        "evaluate": (1, ["--format", "json"]),
        "cluster": (1, ["--format", "json"]),
        "scatter-clusters": (1, ["--with-clusters"]),
        "evaluate-4x": (4, ["--format", "json", "--restarts", "2"]),
    }
    RECORDED_ON = {
        "blas": [
            "scipy-openblas",
            "0.3.31.188.0",
            "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
        ],
        "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
        "machine": "x86_64",
    }
    FULL = {
        "evaluate": (4691, "1b246b120d1cd9e77738925f3db0e2c1087d71426edc811db1b4c83455aca7a8"),
        "cluster": (7580, "51bcb105a2670e0f1ece5f819970cc3cd3c41b7cdb33dc5fae99aa3a7d7bf036"),
        "scatter-clusters": (
            48416, "0ae4d097e6d454b9ce8d4edbbbd219f7d9742e880479a3ec2c9576bd97205264"),
        "evaluate-4x": (4683, "d1cc74bb40535033c82fab44203a9decfaa8332590789e3b09d1d2bdeea720b6"),
    }
    # The evaluate view is the bytes of the CSV report with its time masked.
    ROUNDED = {
        "evaluate": (845, "8eb51afc7fa5dc317d47acd32740605a87756c298332ddaca409d10d2020e85e"),
        "cluster": (3368, "d7a407444d9b4ff645bb06b38ec85dd8184b0feff4f3972733cb4804ee626a3a"),
        "scatter-clusters": (
            23045, "25d28962d470d51ccd17c6289c1f407cd53a6f084bbca23426a468d4cdfa43c5"),
        "evaluate-4x": (851, "6d788179328446f183a02f49cf5cfbc5e0c874bc859de927f51da6f3b2408a00"),
    }

    @pytest.mark.parametrize("command", list(ARGS))
    def test_rounded_pinned(self, child_reports, command):
        out = _rounded(command.split("-")[0], child_reports[command])
        assert (len(out), hashlib.sha256(out).hexdigest()) == self.ROUNDED[command]

    @pytest.mark.parametrize("command", list(ARGS))
    def test_full_precision_pinned(self, child_reports, command):
        if _blas_and_cpu() != self.RECORDED_ON:
            pytest.skip("BLAS build or CPU features differ from the recording")
        out = child_reports[command]
        assert (len(out), hashlib.sha256(out).hexdigest()) == self.FULL[command]
