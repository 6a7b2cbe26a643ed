import json

import pytest

from typetaste import ingest
from typetaste.cli import run
from typetaste.domain import default_catalog, save_catalog


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """Dataset file for CLI tests: 4 types, 56 respondents."""
    path = tmp_path_factory.mktemp("cli") / "survey.csv"
    frequencies = ingest.TypeFrequencyTable(
        {"intp": 18, "intj": 14, "enfp": 14, "estj": 10}
    )
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
        capsys.readouterr()

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

    def test_missing_selector_is_data_error(self, small_csv, capsys):
        assert run(["recommend", "--input", str(small_csv)]) == 1
        capsys.readouterr()

    def test_unknown_user_is_data_error(self, small_csv, capsys):
        assert run([
            "recommend", "--input", str(small_csv), "--user-row", "ghost-9",
        ]) == 1
        capsys.readouterr()

    def test_bad_blend_is_usage_error(self, small_csv, capsys):
        assert run([
            "recommend", "--input", str(small_csv), "--type", "intp", "--blend", "1.5",
        ]) == 2
        capsys.readouterr()


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
