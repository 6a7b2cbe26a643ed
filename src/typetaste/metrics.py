"""Agreement metrics between class labels and cluster assignments, plus the
method-comparison report that ties clustering and evaluation together.

Every agreement score takes the int64 count matrix that :func:`contingency`
builds from two label sequences, such as a dataset's ``type_codes`` and a
fit's assignments.  All entropies and mutual information use natural
logarithms.  Homogeneity, completeness, and V-measure follow the
conditional-entropy definitions, the adjusted Rand index uses exact integer
pair counting, and adjusted mutual information subtracts the expected MI of
random labelings with the same marginals (hypergeometric model) and
normalizes by ``max(H(classes), H(clusters))``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gammaln

from . import kmeans as km
from .domain import Dataset
from .errors import (
    DimensionMismatch,
    EmptyInput,
    Error,
    LengthMismatch,
    SingleClusterOnly,
    TooFewSamples,
)


def _first_appearance_codes(labels: Sequence) -> tuple[np.ndarray, int]:
    """Each label's rank among the distinct labels in order of first
    appearance, and the number of distinct labels."""
    _, first, inverse = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], first.size


def contingency(labels_true: Sequence, labels_pred: Sequence) -> np.ndarray:
    """The int64 joint count matrix of two equal-length label sequences:
    rows index true classes, columns index clusters, both in order of first
    appearance in the label sequences."""
    if len(labels_true) != len(labels_pred):
        raise LengthMismatch(
            f"label sequences differ in length: {len(labels_true)} vs {len(labels_pred)}"
        )
    if len(labels_true) == 0:
        raise EmptyInput("cannot build a contingency table from zero labels")
    rows, n_rows = _first_appearance_codes(labels_true)
    cols, n_cols = _first_appearance_codes(labels_pred)
    cells = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return cells.astype(np.int64, copy=False).reshape(n_rows, n_cols)


def _entropy(sums: np.ndarray) -> float:
    p = sums[sums > 0] / sums.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information(table: np.ndarray) -> float:
    """MI between the two labelings, in nats; never negative."""
    n = int(table.sum())
    rows, cols = np.nonzero(table)
    nij = table[rows, cols].astype(np.float64)
    a = table.sum(axis=1)[rows].astype(np.float64)
    b = table.sum(axis=0)[cols].astype(np.float64)
    mi = float(((nij / n) * (np.log(nij * n) - np.log(a * b))).sum())
    return max(mi, 0.0)


def homogeneity_completeness_v(table: np.ndarray) -> tuple[float, float, float]:
    """Homogeneity, completeness, and their harmonic mean (V-measure).

    Homogeneity is 1 - H(classes | clusters)/H(classes), which equals
    MI/H(classes); a labeling with zero class entropy is trivially
    homogeneous, so that edge scores 1.  Completeness is symmetric, and
    V-measure is 0 when both are 0.
    """
    h_classes = _entropy(table.sum(axis=1))
    h_clusters = _entropy(table.sum(axis=0))
    mi = mutual_information(table)
    homogeneity = 1.0 if h_classes == 0.0 else min(1.0, mi / h_classes)
    completeness = 1.0 if h_clusters == 0.0 else min(1.0, mi / h_clusters)
    if homogeneity + completeness == 0.0:
        v_measure = 0.0
    else:
        v_measure = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return homogeneity, completeness, v_measure


def adjusted_rand(table: np.ndarray) -> float:
    """Pair-counting Rand index, chance-corrected.

    Computed with exact integer arithmetic; when the expected and maximum
    index coincide (for example both labelings put everything in one group)
    the score is defined as 1.
    """
    n = int(table.sum())
    if n < 2:
        raise TooFewSamples(f"adjusted Rand needs at least 2 samples, got {n}")
    index = sum(math.comb(x, 2) for x in table.ravel().tolist())
    sum_a = sum(math.comb(x, 2) for x in table.sum(axis=1).tolist())
    sum_b = sum(math.comb(x, 2) for x in table.sum(axis=0).tolist())
    pairs = math.comb(n, 2)
    numerator = 2 * (index * pairs - sum_a * sum_b)
    denominator = pairs * (sum_a + sum_b) - 2 * sum_a * sum_b
    if denominator == 0:
        return 1.0
    return numerator / denominator


def expected_mutual_information(table: np.ndarray) -> float:
    """Expected MI over random labelings with these exact marginals.

    Averages cell MI contributions under the hypergeometric distribution of
    each cell count given fixed row and column sums, with factorials kept in
    log space for stability.
    """
    n = int(table.sum())
    col_sums = table.sum(axis=0).tolist()
    log_fact = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    emi = 0.0
    for ai in table.sum(axis=1).tolist():
        if ai == 0:
            continue
        for bj in col_sums:
            if bj == 0:
                continue
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1, dtype=np.int64)
            log_p = (
                log_fact[ai]
                + log_fact[bj]
                + log_fact[n - ai]
                + log_fact[n - bj]
                - log_fact[n]
                - log_fact[nij]
                - log_fact[ai - nij]
                - log_fact[bj - nij]
                - log_fact[n - ai - bj + nij]
            )
            terms = (nij / n) * (np.log(nij) + math.log(n) - math.log(ai) - math.log(bj))
            emi += float((terms * np.exp(log_p)).sum())
    # An average of nonnegative MI values; tiny negatives are rounding noise.
    return max(emi, 0.0)


def adjusted_mutual_information(table: np.ndarray) -> float:
    """MI corrected for chance and normalized by the larger marginal entropy.

    Scores near 0 for random labelings of any cluster count and 1 for a
    perfect match; both-sides-degenerate tables (one class, one cluster)
    score 1 by convention.
    """
    n = int(table.sum())
    if n < 2:
        raise TooFewSamples(f"adjusted MI needs at least 2 samples, got {n}")
    h_classes = _entropy(table.sum(axis=1))
    h_clusters = _entropy(table.sum(axis=0))
    if h_classes == 0.0 and h_clusters == 0.0:
        return 1.0
    mi = mutual_information(table)
    emi = expected_mutual_information(table)
    denominator = max(h_classes, h_clusters) - emi
    if denominator == 0.0:
        return 1.0
    return (mi - emi) / denominator


def silhouette_samples(data: np.ndarray, assignments: Sequence[int]) -> np.ndarray:
    """Per-point silhouette values in the given feature space.

    For each point, ``a`` is its mean Euclidean distance to the rest of its
    own cluster and ``b`` the smallest mean distance to another cluster;
    the value is ``(b - a) / max(a, b)``.  Singleton clusters score 0, as do
    points where both means vanish.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {X.shape}")
    labels = np.asarray(assignments)
    if labels.shape != (X.shape[0],):
        raise LengthMismatch(
            f"{labels.shape[0] if labels.ndim else 0} assignments for {X.shape[0]} points"
        )
    unique = np.unique(labels)
    if unique.size < 2:
        raise SingleClusterOnly("silhouette needs at least 2 distinct clusters")
    distances = cdist(X, X)
    members = labels[:, None] == unique[None, :]
    sizes = members.sum(axis=0)
    cluster_sums = distances @ members
    own = members.argmax(axis=1)
    n = X.shape[0]
    own_size = sizes[own]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = cluster_sums[np.arange(n), own] / (own_size - 1)
        mean_to = cluster_sums / sizes[None, :]
        mean_to[np.arange(n), own] = np.inf
        b = mean_to.min(axis=1)
        s = (b - a) / np.maximum(a, b)
    s[own_size == 1] = 0.0
    s[np.maximum(a, b) == 0.0] = 0.0
    return np.nan_to_num(s, nan=0.0, posinf=0.0, neginf=0.0)


def silhouette(data: np.ndarray, assignments: Sequence[int]) -> float:
    """Mean per-point silhouette value."""
    return float(silhouette_samples(data, assignments).mean())


@dataclass(frozen=True)
class EvaluationReport:
    """One method's scores against the true labels, plus its fit time."""

    method: str
    elapsed: float
    homogeneity: float
    completeness: float
    v_measure: float
    ari: float
    ami: float
    silhouette: float


def evaluate(labels_true: Sequence, result: km.ClusteringResult) -> EvaluationReport:
    """Score one clustering result against true class labels.

    The silhouette is geometric, so it is taken in ``result.space``, the
    space the fit clustered (the reduced space for PCA-based fits).
    """
    table = contingency(labels_true, result.assignments)
    homogeneity, completeness, v_measure = homogeneity_completeness_v(table)
    return EvaluationReport(
        method=result.method,
        elapsed=result.elapsed,
        homogeneity=homogeneity,
        completeness=completeness,
        v_measure=v_measure,
        ari=adjusted_rand(table),
        ami=adjusted_mutual_information(table),
        silhouette=silhouette(result.space, result.assignments),
    )


ALL_METHODS: tuple[str, ...] = (km.INIT_KMEANSPP, km.INIT_RANDOM, km.METHOD_PCA)

# The dimension the pca-based method reduces each category to before k-means.
PCA_DIMS = 2

# The report's column names, one per EvaluationReport field in field order.
REPORT_COLUMNS: tuple[str, ...] = (
    "method",
    "time",
    "homo",
    "compl",
    "v-meas",
    "ARI",
    "AMI",
    "Silhouette",
)


def _method_config(method: str, k: int, seed: int, restarts: int) -> km.KmeansConfig:
    """The fit a comparison method names; ``pca`` is short for ``pca-based``."""
    method = km.METHOD_PCA if method == "pca" else method
    if method not in ALL_METHODS:
        raise Error(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    return km.KmeansConfig(
        k=k,
        init=km.INIT_RANDOM if method == km.INIT_RANDOM else km.INIT_KMEANSPP,
        reduce_first=PCA_DIMS if method == km.METHOD_PCA else None,
        seed=seed,
        restarts=restarts,
    )


def run_method_comparison(
    dataset: Dataset,
    k: int = 16,
    methods: Sequence[str] = ALL_METHODS,
    categories: Sequence[str] | None = None,
    seed: int = 0,
    restarts: int = km.DEFAULT_RESTARTS,
) -> list[tuple[str, EvaluationReport]]:
    """Cluster each category's rating columns with each method and score the
    results against the respondents' personality types.

    Every (category, method) cell gets its own child seed spawned from
    ``seed``, so the whole comparison is reproducible.  Rows come back
    category-major in the requested order.
    """
    if categories is None:
        categories = dataset.catalog.category_names
    cell_seeds = np.random.SeedSequence(seed).generate_state(
        len(categories) * len(methods), np.uint64
    )
    rows: list[tuple[str, EvaluationReport]] = []
    cell = 0
    for category in categories:
        X = dataset.feature_matrix(category)
        for method in methods:
            config = _method_config(method, k, int(cell_seeds[cell]), restarts)
            cell += 1
            result = km.fit(X, config)
            rows.append((category, evaluate(dataset.type_codes, result)))
    return rows


def _fmt3(value: float) -> str:
    return f"{round(float(value), 3):g}"


def comparison_to_csv(rows: Sequence[tuple[str, EvaluationReport]]) -> str:
    """Render comparison rows as CSV: one fixed header, category groups
    separated by ``# category=<name>`` comment lines, values at 3 decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    current: str | None = None
    for category, report in rows:
        if category != current:
            buf.write(f"# category={category}\n")
            current = category
        method, *scores = astuple(report)
        writer.writerow([method, *map(_fmt3, scores)])
    return buf.getvalue()


def comparison_to_json(
    rows: Sequence[tuple[str, EvaluationReport]], metadata: Mapping | None = None
) -> str:
    """Render comparison rows as JSON at full precision, grouped by category,
    with run parameters under ``metadata``."""
    categories: dict[str, list[dict]] = {}
    for category, report in rows:
        categories.setdefault(category, []).append(
            dict(zip(REPORT_COLUMNS, astuple(report)))
        )
    doc = {"metadata": dict(metadata or {}), "categories": categories}
    return json.dumps(doc, indent=2) + "\n"
