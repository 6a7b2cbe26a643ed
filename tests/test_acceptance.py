"""End-to-end acceptance checks for the full pipeline.

Each test prints one ``[acceptance] <name>: PASS|FAIL`` line on the real
stdout so the verdicts survive pytest's capture and show up in any log.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    adjusted_rand_oracle,
    best_partition_sse_oracle,
    entropy_oracle,
    expected_mi_permutation_oracle,
    hcv_oracle,
    jacobi_eigh_oracle,
    mutual_information_oracle,
    silhouette_oracle,
)
from typetaste import ingest, metrics, recommend
from typetaste.cli import run
from typetaste.domain import ALL_TYPES, PSYCHOLOGY, RELIGION_SPIRITUALITY, default_catalog
from typetaste.kmeans import (
    INIT_RANDOM,
    KmeansConfig,
    fit,
    init_random,
    lloyd,
)
from typetaste.pca import fit_pca


def _line(name: str, verdict: str) -> None:
    sys.__stdout__.write(f"[acceptance] {name}: {verdict}\n")
    sys.__stdout__.flush()


def criterion(name):
    """Print the verdict line for a test, whatever way it exits."""

    def wrap(fn):
        @functools.wraps(fn)
        def run_case(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _line(name, "FAIL")
                raise
            _line(name, "PASS")

        return run_case

    return wrap


def hypercube_blobs(points_per_blob=10, noise=0.5, seed=8):
    """16 well-separated blobs at the corners of a scaled 4-cube, in 8-D."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((16, 8))
    for i in range(16):
        centers[i, :4] = [20.0 * ((i >> b) & 1) for b in range(4)]
    X = np.vstack(
        [c + rng.normal(scale=noise, size=(points_per_blob, 8)) for c in centers]
    )
    return X


REFERENCE_COUNTS = {
    "intp": 221, "intj": 160, "infj": 134, "infp": 111,
    "istp": 81, "entp": 76, "enfp": 71, "istj": 65,
    "isfj": 26, "isfp": 22, "entj": 17, "estp": 12,
    "enfj": 11, "esfp": 5, "estj": 5, "esfj": 3,
}
CATEGORY_WIDTHS = {
    "fiction-books": 30,
    "nonfiction-books": 34,
    "music": 25,
    "movies": 21,
    "video-games": 11,
}


@pytest.fixture(scope="module")
def full_survey_csv(tmp_path_factory, survey_dataset):
    path = tmp_path_factory.mktemp("acceptance") / "survey.csv"
    ingest.save_dataset(survey_dataset, path)
    return path


@pytest.fixture(scope="module")
def compact_csv(tmp_path_factory):
    """56 respondents over 4 types; keeps the CLI-level checks quick."""
    frequencies = {"intp": 18, "intj": 14, "enfp": 14, "estj": 10}
    dataset = ingest.generate_synthetic(
        ingest.SynthConfig(seed=515, frequencies=frequencies)
    )
    path = tmp_path_factory.mktemp("acceptance_compact") / "compact.csv"
    ingest.save_dataset(dataset, path)
    return path


@criterion("dataset-shape-fidelity")
def test_01_dataset_shape_fidelity(tmp_path):
    out = tmp_path / "survey.csv"
    start = time.perf_counter()
    code = run(["synth", "--paper-frequencies", "--seed", "20260822", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0

    dataset = ingest.load_dataset(out)
    assert len(dataset.records) == 1020
    counts = np.bincount(dataset.type_codes, minlength=len(ALL_TYPES)).tolist()
    assert {t: c for t, c in zip(ALL_TYPES, counts) if c} == REFERENCE_COUNTS

    catalog = default_catalog()
    assert dataset.rating_matrix().shape == (1020, 121)
    widths = {c: len(catalog.genres_in(c)) for c in CATEGORY_WIDTHS}
    assert widths == CATEGORY_WIDTHS
    assert sum(widths.values()) == 121


@criterion("metric-oracle-equivalence")
def test_02_metric_oracle_equivalence():
    rng = np.random.default_rng(20260822)
    for _ in range(250):
        n = int(rng.integers(2, 9))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        table = metrics.contingency(a, b)

        h, c, v = metrics.homogeneity_completeness_v(table)
        oh, oc, ov = hcv_oracle(a, b)
        assert abs(h - oh) <= 1e-9
        assert abs(c - oc) <= 1e-9
        assert abs(v - ov) <= 1e-9
        assert abs(metrics.mutual_information(table) - mutual_information_oracle(a, b)) <= 1e-9
        assert abs(metrics.adjusted_rand(table) - adjusted_rand_oracle(a, b)) <= 1e-9


@criterion("expected-mi-exactness")
def test_03_expected_mi_exactness():
    rng = np.random.default_rng(7)
    # Small instances against the brute-force permutation average.
    for n in (3, 4, 5, 6, 7):
        for _ in range(2):
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            emi = metrics.expected_mutual_information(metrics.contingency(a, b))
            assert abs(emi - expected_mi_permutation_oracle(a, b)) <= 1e-6

    # Chance correction: random labelings should average to roughly zero.
    scores = []
    for _ in range(500):
        a = rng.integers(0, 4, size=60)
        b = rng.integers(0, 4, size=60)
        scores.append(metrics.adjusted_mutual_information(metrics.contingency(a, b)))
    assert abs(float(np.mean(scores))) <= 0.02


@criterion("perfect-clustering-fixture")
def test_04_perfect_clustering_fixture(survey_dataset):
    labels = [ALL_TYPES[c] for c in survey_dataset.type_codes.tolist()]
    codes = {code: i for i, code in enumerate(dict.fromkeys(labels))}
    table = metrics.contingency(labels, [codes[v] for v in labels])
    assert table.shape == (16, 16)

    h, c, v = metrics.homogeneity_completeness_v(table)
    for score in (
        h,
        c,
        v,
        metrics.adjusted_rand(table),
        metrics.adjusted_mutual_information(table),
    ):
        assert abs(score - 1.0) <= 1e-12


@criterion("metric-identities")
def test_05_metric_identities():
    rng = np.random.default_rng(99)
    # The v-measure must equal mutual information normalized by the summed
    # label entropies, far beyond its harmonic-mean formulation's rounding.
    for _ in range(500):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        table = metrics.contingency(a, b)
        _, _, v = metrics.homogeneity_completeness_v(table)
        total = entropy_oracle(a) + entropy_oracle(b)
        if total == 0.0:
            assert v == 1.0
        else:
            assert abs(v - 2.0 * metrics.mutual_information(table) / total) <= 1e-12

    # Range fuzz over partition metrics.
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        table = metrics.contingency(a, b)
        h, c, v = metrics.homogeneity_completeness_v(table)
        for score in (h, c, v):
            assert 0.0 <= score <= 1.0
        mi = metrics.mutual_information(table)
        assert 0.0 <= mi <= min(entropy_oracle(a), entropy_oracle(b)) + 1e-9
        ari = metrics.adjusted_rand(table)
        assert -1.0 - 1e-9 <= ari <= 1.0 + 1e-9
        ami = metrics.adjusted_mutual_information(table)
        assert math.isfinite(ami)
        assert ami <= 1.0 + 1e-9

    # Range fuzz over the geometry metric.
    for _ in range(100):
        n = int(rng.integers(4, 40))
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        labels = rng.integers(0, 3, size=n)
        labels[0], labels[1] = 0, 1
        values = metrics.silhouette_samples(X, labels)
        assert np.all(values >= -1.0 - 1e-12)
        assert np.all(values <= 1.0 + 1e-12)


@criterion("silhouette-oracle")
def test_06_silhouette_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 8))
        labels = rng.integers(0, int(rng.integers(2, 7)), size=n)
        labels[0], labels[1] = 0, 1
        X = rng.normal(size=(n, d))
        assert abs(metrics.silhouette(X, labels) - silhouette_oracle(X, labels)) <= 1e-12

    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    assert metrics.silhouette(X, [0, 0, 1, 1]) >= 0.98


@criterion("kmeans-correctness")
def test_07_kmeans_correctness():
    rng = np.random.default_rng(55)
    # Lloyd never worsens the objective as its iteration budget grows.
    for trial in range(100):
        n = int(rng.integers(8, 30))
        k = int(rng.integers(2, 6))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        start = init_random(X, k, seed=trial)
        config = [
            KmeansConfig(k=k, max_iters=m, tol=0.0, restarts=1) for m in range(1, 7)
        ]
        inertias = [lloyd(X, start, cfg).inertia for cfg in config]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-9

    # Unit square, k=2: the optimum is two edge midpoints at cost exactly 1.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    result = fit(square, KmeansConfig(k=2, seed=0, restarts=4))
    assert result.inertia == 1.0
    assert best_partition_sse_oracle(square, 2) == 1.0

    # Distance-weighted seeding should beat uniform seeding on average.
    X = hypercube_blobs(points_per_blob=10, noise=0.5, seed=8)
    smart, plain = [], []
    for seed in range(30):
        smart.append(fit(X, KmeansConfig(k=16, seed=seed, restarts=1)).inertia)
        plain.append(
            fit(X, KmeansConfig(k=16, seed=seed, restarts=1, init=INIT_RANDOM)).inertia
        )
    assert np.mean(smart) <= np.mean(plain)


@criterion("pca-correctness")
def test_08_pca_correctness():
    accepted = 0
    for seed in itertools.count(400):
        X = np.random.default_rng(seed).normal(size=(50, 20))
        model = fit_pca(X, 20)
        gaps = -np.diff(model.explained_variance)
        if gaps.min() <= 1e-3:
            continue  # too close to degenerate for a sign-stable comparison
        accepted += 1

        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(20)).max() <= 1e-9

        centered = X - X.mean(axis=0)
        covariance = (centered.T @ centered) / 49.0
        values, vectors = jacobi_eigh_oracle(covariance)
        assert np.abs(model.explained_variance - values).max() <= 1e-6
        for i in range(20):
            v, w = model.components[i], vectors[:, i]
            assert min(np.abs(v - w).max(), np.abs(v + w).max()) <= 1e-6

        if accepted == 5:
            break

    collinear = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    assert fit_pca(collinear, 2).explained_variance[1] == 0.0


@criterion("pipeline-shape-and-timing")
def test_09_pipeline_shape_and_timing(full_survey_csv, tmp_path):
    out = tmp_path / "report.csv"
    start = time.perf_counter()
    code = run(["evaluate", "--input", str(full_survey_csv), "--seed", "0", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed <= 5.0

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,time,homo,compl,v-meas,ARI,AMI,Silhouette"
    groups = [l for l in lines if l.startswith("# category=")]
    assert [g.split("=", 1)[1] for g in groups] == list(CATEGORY_WIDTHS)
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 15
    assert [r.split(",")[0] for r in rows] == ["kmeans++", "random", "pca-based"] * 5
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 8
        assert all(math.isfinite(float(cell)) for cell in cells[1:])


@criterion("recommendation-behavior")
def test_10_recommendation_behavior(survey_dataset, full_survey_csv, tmp_path):
    profiles = recommend.build_profiles(survey_dataset)
    ranked = recommend.recommend_for_type(profiles, "intp", top_n=121)
    names = [item.genre for item in ranked.items]
    assert names.index(PSYCHOLOGY) < names.index(RELIGION_SPIRITUALITY)

    # A user with no ratings at all must fall back to their type profile.
    cold_csv = tmp_path / "with_cold.csv"
    cold_row = "cold-001,intp," + ",".join(["0"] * 121)
    cold_csv.write_text(full_survey_csv.read_text(encoding="utf-8") + cold_row + "\n")
    by_type = tmp_path / "by_type.json"
    by_user = tmp_path / "by_user.json"
    base = ["recommend", "--input", str(cold_csv), "--top", "121", "--format", "json"]
    assert run(base + ["--type", "intp", "-o", str(by_type)]) == 0
    assert run(base + ["--user-row", "cold-001", "-o", str(by_user)]) == 0
    assert by_type.read_bytes() == by_user.read_bytes()


def _mask_time_column(text: str) -> str:
    """Blank the wall-clock cell; it is a measurement, not seeded content."""
    lines = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("method,"):
            lines.append(line)
        else:
            cells = line.split(",")
            cells[1] = "_"
            lines.append(",".join(cells))
    return "\n".join(lines)


@criterion("seeded-determinism")
def test_11_seeded_determinism(compact_csv, tmp_path):
    def twice(argv, suffix):
        a = tmp_path / f"a{suffix}"
        b = tmp_path / f"b{suffix}"
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        return a, b

    a, b = twice(["synth", "--paper-frequencies", "--seed", "123"], "_synth.csv")
    assert a.read_bytes() == b.read_bytes()

    base = ["cluster", "--input", str(compact_csv), "--k", "4",
            "--restarts", "2", "--seed", "42"]
    a, b = twice(base, "_cluster.csv")
    assert a.read_bytes() == b.read_bytes()
    a, b = twice(base + ["--format", "json"], "_cluster.json")
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    doc_a["elapsed_seconds"] = doc_b["elapsed_seconds"] = 0.0
    assert doc_a == doc_b

    base = ["evaluate", "--input", str(compact_csv), "--k", "4",
            "--category", "movies", "--category", "video-games",
            "--restarts", "2", "--seed", "7"]
    a, b = twice(base, "_eval.csv")
    assert _mask_time_column(a.read_text()) == _mask_time_column(b.read_text())
    a, b = twice(base + ["--format", "json"], "_eval.json")
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    for doc in (doc_a, doc_b):
        for rows in doc["categories"].values():
            for row in rows:
                row["time"] = 0.0
    assert doc_a == doc_b

    a, b = twice(
        ["scatter", "--input", str(compact_csv), "--dims", "2",
         "--with-clusters", "--k", "4", "--restarts", "2", "--seed", "3"],
        "_scatter.csv",
    )
    assert a.read_bytes() == b.read_bytes()


def run_in_child(argv: list[str], threads: str = "1") -> bytes:
    """The stdout of the CLI run on ``argv`` in a child interpreter at
    ``threads`` OpenBLAS threads.  OpenBLAS reads its thread count when it
    loads, so a count can only be set for a new process."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from typetaste.cli import main; main()", *argv],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout


@criterion("csv-report-across-blas-threads")
def test_12_csv_report_same_on_one_and_two_blas_threads(full_survey_csv, tmp_path):
    """On two OpenBLAS threads a product may sum in another order, which
    moves the last bits of some silhouettes in ``evaluate --format json``.
    The default CSV report, with its time column masked, stays the same.
    Each thread count runs in a child interpreter."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.csv"
        run_in_child(["evaluate", "--input", str(full_survey_csv), "--restarts", "2",
                      "--seed", "0", "-o", str(out)], threads)
        reports.append(_mask_time_column(out.read_text(encoding="utf-8")))
    assert reports[0] == reports[1]
