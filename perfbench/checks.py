"""Output checks, each against a computation made apart from the program or
against a property the method must have.  Every function returns a list of
problems; an empty list means the output passed.  None of this runs inside
a timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import hypergeom

from survey import PSYCHOLOGY, RELIGION, TYPES, Survey

N_RATINGS = 7
DISLIKE_MAX = 2
BLEND = 0.5
REPORT_RANGES = {
    "homo": (0.0, 1.0), "compl": (0.0, 1.0), "v-meas": (0.0, 1.0),
    "ARI": (-1.0, 1.0), "AMI": (-1.0, 1.0), "Silhouette": (-1.0, 1.0),
}
# Planted types are well separated, so every full-space fit must beat chance
# (0 for ARI and AMI) by a wide margin.
ABOVE_CHANCE = 0.05


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def type_profile_scores(survey: Survey, code: str) -> np.ndarray:
    """Mean of the nonzero ratings per genre; 0 where nobody tried it."""
    block = survey.ratings[survey.types == TYPES.index(code)]
    tried = (block > 0).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = block.sum(axis=0) / tried
    return mean


def user_scores(survey: Survey, row: int) -> tuple[np.ndarray, np.ndarray]:
    """Blended scores for one respondent and the mask of genres offered."""
    ratings = survey.ratings[row].astype(float)
    mean = type_profile_scores(survey, TYPES[survey.types[row]])
    if not (ratings > 0).any():
        return np.nan_to_num(mean), np.ones(ratings.shape, bool)
    blended = BLEND * ratings + (1 - BLEND) * mean
    blended = np.where(np.isnan(blended), ratings, blended)
    scores = np.where(ratings > 0, blended, np.nan_to_num(mean))
    offered = ~((ratings >= 1) & (ratings <= DISLIKE_MAX))
    return scores, offered


def ranking(items: list[tuple[str, float]], expected: dict[str, float], top: int) -> list[str]:
    """``items`` must be the first ``top`` of ``expected`` ranked by score
    descending, ties alphabetical, with matching scores."""
    problems = []
    for genre, score in items:
        if genre not in expected:
            problems.append(f"{genre!r} is not a candidate")
        elif not _close(score, expected[genre]):
            problems.append(f"{genre!r} scored {score}, expected {expected[genre]}")
    want = sorted(expected, key=lambda g: (-expected[g], g))[:top]
    if [g for g, _ in items] != want:
        problems.append(f"ranking {[g for g, _ in items][:5]}... != {want[:5]}...")
    return problems


def check_synth(text: bytes, freq: dict[str, int], n_genres: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"))))
    if len(rows[0]) != n_genres + 2:
        return [f"synth header has {len(rows[0])} columns"]
    counts = Counter(row[1] for row in rows[1:] if row)
    if dict(counts) != {t: c for t, c in freq.items() if c}:
        return [f"synth type counts {dict(counts)} != frequency file"]
    return []


def check_validate(out: str, survey: Survey, n_genres: int) -> list[str]:
    present = len(set(survey.types.tolist()))
    want = f"ok: {len(survey)} records, {n_genres} genre columns, {present} personality types\n"
    return [] if out == want else [f"validate printed {out!r}, expected {want!r}"]


def check_freq(out: str, survey: Survey) -> list[str]:
    lines = out.splitlines()
    counts = Counter(survey.type_codes)
    got = dict(line.split(",") for line in lines[lines.index("mbti,count") + 1 :])
    problems = []
    if {t: int(c) for t, c in got.items()} != {t: counts.get(t, 0) for t in TYPES}:
        problems.append("freq counts differ from the survey")
    if lines[0] != f"# total={len(survey)}":
        problems.append(f"freq total line {lines[0]!r}")
    return problems


def check_pairtable(out: str, survey: Survey, code: str, genres: tuple[str, ...]) -> list[str]:
    block = survey.ratings[survey.types == TYPES.index(code)]
    a, b = block[:, genres.index(PSYCHOLOGY)], block[:, genres.index(RELIGION)]
    want = np.zeros((N_RATINGS, N_RATINGS), dtype=int)
    for i, j in zip(a, b):
        want[i, j] += 1
    rows = [line for line in out.splitlines() if not line.startswith(("#", "b="))]
    got = np.array([[int(x) for x in row.split(",")] for row in rows])
    return [] if np.array_equal(got, want) else [f"pairtable for {code} differs from a tally"]


def check_recommend_type(out: str, survey: Survey, code: str, genres, top: int) -> list[str]:
    doc = json.loads(out)
    scores = np.nan_to_num(type_profile_scores(survey, code))
    items = [(it["genre"], it["score"]) for it in doc["items"]]
    return ranking(items, dict(zip(genres, scores.tolist())), top)


def check_recommend_user(out: str, survey: Survey, row: int, genres, top: int) -> list[str]:
    doc = json.loads(out)
    scores, offered = user_scores(survey, row)
    items = [(it["genre"], it["score"]) for it in doc["items"]]
    rated = survey.ratings[row]
    problems = [
        f"offered {g!r}, which the user rated {rated[genres.index(g)]}"
        for g, _ in items
        if 1 <= rated[genres.index(g)] <= DISLIKE_MAX
    ]
    expected = {g: s for g, s, ok in zip(genres, scores.tolist(), offered) if ok}
    return problems + ranking(items, expected, top)


def check_scatter(out: str, survey: Survey, k: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))[1:]
    points = np.array([[float(r[0]), float(r[1])] for r in rows if r[4] == "0"])
    problems = []
    if len(rows) != len(survey) + k:
        problems.append(f"scatter has {len(rows)} rows, expected n + k = {len(survey) + k}")
    eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(survey.ratings.T.astype(float))))[::-1]
    variances = points.var(axis=0, ddof=1)
    for i in range(2):
        if not _close(variances[i], eigenvalues[i], 1e-6):
            problems.append(f"var(pc{i + 1}) = {variances[i]}, eigenvalue {eigenvalues[i]}")
    return problems


def check_cluster(doc: dict, X: np.ndarray, k: int) -> list[str]:
    """A Lloyd fixed point: every point is nearest to the mean of its own
    cluster, and the reported inertia is the sum of squares to those means."""
    labels = np.asarray(doc["assignments"])
    if labels.shape != (X.shape[0],) or labels.min() < 0 or labels.max() >= k:
        return ["cluster assignments have the wrong shape or range"]
    sizes = np.bincount(labels, minlength=k)
    means = np.zeros((k, X.shape[1]))
    np.add.at(means, labels, X)
    means[sizes > 0] /= sizes[sizes > 0, None]
    d2 = np.stack([((X - m) ** 2).sum(axis=1) for m in means[sizes > 0]], axis=1)
    own = d2[np.arange(len(X)), np.searchsorted(np.flatnonzero(sizes), labels)]
    problems = []
    slack = own - d2.min(axis=1)
    if slack.max() > 1e-6 * max(1.0, float(own.max())):
        problems.append(f"{int((slack > 1e-6).sum())} points are nearer another cluster mean")
    if not _close(float(own.sum()), doc["inertia"], 1e-6):
        problems.append(f"inertia {doc['inertia']} != recomputed {own.sum()}")
    return problems


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _conditional_entropy(table: np.ndarray) -> float:
    """H(rows | columns) from a joint count table."""
    n = table.sum()
    col = table.sum(axis=0)
    i, j = np.nonzero(table)
    return float(-(table[i, j] / n * np.log(table[i, j] / col[j])).sum())


def independent_scores(classes: np.ndarray, clusters: np.ndarray) -> dict[str, float]:
    """h, c, V from conditional entropies, ARI by exact pair counts, and EMI
    summed over ``scipy.stats.hypergeom``."""
    _, ci = np.unique(classes, return_inverse=True)
    _, ki = np.unique(clusters, return_inverse=True)
    table = np.zeros((ci.max() + 1, ki.max() + 1), dtype=np.int64)
    np.add.at(table, (ci, ki), 1)
    n = int(table.sum())
    h_c, h_k = _entropy(table.sum(axis=1)), _entropy(table.sum(axis=0))
    h = 1.0 if h_c == 0 else 1 - _conditional_entropy(table) / h_c
    c = 1.0 if h_k == 0 else 1 - _conditional_entropy(table.T) / h_k

    def pairs(counts) -> int:
        return sum(math.comb(int(v), 2) for v in np.ravel(counts))

    index, sum_a, sum_b = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = Fraction(sum_a * sum_b, math.comb(n, 2))
    ari = (index - expected) / (Fraction(sum_a + sum_b, 2) - expected)
    emi = 0.0
    for a in table.sum(axis=1):
        for b in table.sum(axis=0):
            nij = np.arange(max(1, a + b - n), min(a, b) + 1)
            pmf = hypergeom(n, a, b).pmf(nij)
            emi += float((pmf * nij / n * np.log(n * nij / (a * b))).sum())
    return {"h": h, "c": c, "v": 2 * h * c / (h + c) if h + c else 0.0,
            "ari": float(ari), "emi": emi}


def check_metric_functions(metrics, classes: list[str], clusters: np.ndarray) -> list[str]:
    """The program's metric functions against :func:`independent_scores`."""
    table = metrics.contingency(classes, clusters.tolist())
    h, c, v = metrics.homogeneity_completeness_v(table)
    got = {"h": h, "c": c, "v": v, "ari": metrics.adjusted_rand(table),
           "emi": metrics.expected_mutual_information(table)}
    want = independent_scores(np.asarray(classes), clusters)
    return [f"{key}: program {got[key]}, independent {want[key]}"
            for key in want if not _close(got[key], want[key], 1e-8)]


def check_evaluate(reports: list[dict]) -> list[str]:
    """Full-precision ``evaluate`` reports: V is the harmonic mean of h and
    c, scores lie in range, full-space fits beat chance, and every sample
    gives the same scores apart from ``time``."""
    problems = []
    rows = [row for cells in reports[0]["categories"].values() for row in cells]
    if len(rows) != 15:
        problems.append(f"evaluate returned {len(rows)} rows, expected 5 categories x 3")
    for row in rows:
        h, c = row["homo"], row["compl"]
        if not _close(row["v-meas"], 2 * h * c / (h + c) if h + c else 0.0, 1e-12):
            problems.append(f"V != 2hc/(h+c) in {row}")
        for key, (lo, hi) in REPORT_RANGES.items():
            if not lo <= row[key] <= hi:
                problems.append(f"{key} = {row[key]} out of range")
        if row["method"] != "pca-based" and min(row["ARI"], row["AMI"]) < ABOVE_CHANCE:
            problems.append(f"{row['method']} scores at chance: {row}")

    def scores(report: dict) -> dict:
        return {cat: [{k: v for k, v in r.items() if k != "time"} for r in cells]
                for cat, cells in report["categories"].items()}

    if any(scores(r) != scores(reports[0]) for r in reports[1:]):
        problems.append("two evaluate samples differ in their scores")
    return problems
