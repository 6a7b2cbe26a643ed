"""Agreement metrics between class labels and cluster assignments, plus the
method-comparison report that ties clustering and evaluation together.

Every agreement score takes the int64 count matrix that :func:`contingency`
builds from two label sequences, such as a dataset's ``type_codes`` and a
fit's assignments, and raises :class:`Error` for a table that is not a 2-D
array of non-negative integers (``domain.count_table``); labels that numpy
cannot sort, such as None among ints, raise it too.  All entropies and
mutual information use natural logarithms.  Homogeneity, completeness, and
V-measure follow the conditional-entropy definitions, the adjusted Rand
index uses exact integer pair counting, and adjusted mutual information
subtracts the expected MI of random labelings with the same marginals
(hypergeometric model) and normalizes by ``max(H(classes), H(clusters))``.
The expected MI is one array pass: every (row, column) pair's run of
possible cell counts is laid end to end, and the terms are built over that
one array and added with one numpy ``sum``; its log-factorials come from
``math.lgamma``, so the package needs numpy only.

The silhouette (Rousseeuw 1987) never holds the n x n distance matrix: it
builds each point's per-cluster distance sums a block of rows at a time,
through one of two exact paths, integer (raw ratings, one product of
augmented rows per block) or general (any other input), and matches the
full-matrix sums bit for bit.  It scores an (m, n) stack of labelings of
the same rows in one distance pass, and :func:`evaluate` stacks the fits
that clustered the same space, so each clustered space's distances are built
once: a category's ``kmeans++`` and ``random`` fits share theirs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kmeans as km
from . import pca
from .domain import Dataset, check_seed, count_table, data_matrix, integral_scale
from .errors import Error


def _unique(labels: np.ndarray, **kwargs):
    """``np.unique`` of a label array; labels that numpy cannot sort, such
    as None or a dict among ints, raise :class:`Error`."""
    try:
        return np.unique(labels, **kwargs)
    except TypeError:
        raise Error("labels must sort together, such as all ints or all strings") from None


def _first_appearance_codes(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Each label's rank among the distinct labels in order of first
    appearance, and the number of distinct labels."""
    _, first, inverse = _unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], first.size


def contingency(labels_true: Sequence, labels_pred: Sequence) -> np.ndarray:
    """The int64 joint count matrix of two equal-length label sequences:
    rows index true classes, columns index clusters, both in order of first
    appearance in the label sequences."""
    true, pred = np.asarray(labels_true), np.asarray(labels_pred)
    if true.ndim != 1 or pred.ndim != 1:
        raise Error(f"labels must be 1-D sequences, got shapes {true.shape} and {pred.shape}")
    if len(true) != len(pred):
        raise Error(f"label sequences differ in length: {len(true)} vs {len(pred)}")
    if len(true) == 0:
        raise Error("cannot build a contingency table from zero labels")
    rows, n_rows = _first_appearance_codes(true)
    cols, n_cols = _first_appearance_codes(pred)
    cells = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return cells.astype(np.int64, copy=False).reshape(n_rows, n_cols)


def _entropy(sums: np.ndarray) -> float:
    p = sums[sums > 0] / sums.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information(table: np.ndarray) -> float:
    """MI between the two labelings, in nats; never negative."""
    table = count_table(table)
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
    table = count_table(table)
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
    table = count_table(table)
    n = int(table.sum())
    if n < 2:
        raise Error(f"adjusted Rand needs at least 2 samples, got {n}")
    index = sum(math.comb(x, 2) for x in table.ravel().tolist())
    sum_a = sum(math.comb(x, 2) for x in table.sum(axis=1).tolist())
    sum_b = sum(math.comb(x, 2) for x in table.sum(axis=0).tolist())
    pairs = math.comb(n, 2)
    numerator = 2 * (index * pairs - sum_a * sum_b)
    denominator = pairs * (sum_a + sum_b) - 2 * sum_a * sum_b
    if denominator == 0:
        return 1.0
    return numerator / denominator


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n as float64: the C library's ``lgamma`` at k + 1."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)


def expected_mutual_information(table: np.ndarray) -> float:
    """Expected MI over random labelings with these exact marginals.

    Averages cell MI contributions under the hypergeometric distribution of
    each cell count given fixed row and column sums, with factorials kept in
    log space for stability.  Every (row, column) pair's run of possible
    counts ``max(1, a + b - n) .. min(a, b)`` is laid end to end in one
    array, so the terms are built and added in one pass; a zero marginal
    gives an empty run.
    """
    table = count_table(table)
    n = int(table.sum())
    a, b = table.sum(axis=1), table.sum(axis=0)
    lo = np.maximum(a[:, None] + b - n, 1)
    runs = np.maximum(np.minimum(a[:, None], b) - lo + 1, 0).ravel()
    pair = np.repeat(np.arange(runs.size), runs)
    # Each term's offset within its run, plus the run's first count.
    nij = np.arange(pair.size) + np.repeat(lo.ravel() - (np.cumsum(runs) - runs), runs)
    ai, bj = a[pair // b.size], b[pair % b.size]
    log_fact = _log_factorials(n)
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
    terms = (nij / n) * (np.log(nij * n) - np.log(ai * bj))
    # An average of nonnegative MI values; tiny negatives are rounding noise.
    return max(float((terms * np.exp(log_p)).sum()), 0.0)


def adjusted_mutual_information(table: np.ndarray) -> float:
    """MI corrected for chance and normalized by the larger marginal entropy.

    Scores near 0 for random labelings of any cluster count and 1 for a
    perfect match; both-sides-degenerate tables (one class, one cluster)
    score 1 by convention.
    """
    table = count_table(table)
    n = int(table.sum())
    if n < 2:
        raise Error(f"adjusted MI needs at least 2 samples, got {n}")
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


# The fewest distance-matrix entries a row block holds (4 MB of float64;
# a block holds fewer than twice as many).  With k >= 2 clusters each
# block's product with the membership matrix then has over 10**6
# multiply-adds: OpenBLAS sends smaller products to a kernel that sums in
# another order, so their bits would differ from one product over all rows.
_BLOCK_ENTRIES = 2**19

# Rows of a block whose squared coordinate differences the general path
# takes at a time, so that its scratch array stays small beside the block.
_DIFF_ROWS = 32


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Near-equal (start, stop) row ranges of at least
    ``_BLOCK_ENTRIES / n`` rows each (fewer only when n is smaller)."""
    rows = -(-_BLOCK_ENTRIES // n)
    count = max(1, n // rows)
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _distance_sums(X: np.ndarray, memberships: Sequence[np.ndarray]) -> list[np.ndarray]:
    """For each (n, k) boolean matrix in ``memberships``, the (n, k) sums of
    Euclidean distances from each row of ``X`` to the rows of each cluster
    it marks.

    Several labelings of the same rows share every distance block: each
    block is built once and multiplied by each labeling's memberships in
    turn.  Each product keeps the shape of that labeling's own product, so
    its sums have the bits they have when it is scored alone.  One product
    with the memberships side by side would not: OpenBLAS sums a 2 + 2
    column product over 500 to 700 rows in another order than a 2-column
    one.

    Each distance has the bits of ``sqrt(sum_j (x_j - y_j) ** 2)`` summed
    in coordinate order.  When ``X`` is integral and ``4 * d * max|x| ** 2``
    is below 2**53, a block's squared distances are one product of the
    augmented rows ``[x, |x|^2, 1]`` and ``[-2y, 1, |y|^2]``, that is
    ``|x|^2 + |y|^2 - 2 x.y``: every partial sum is an integer of magnitude
    at most ``4 * d * max|x| ** 2``, so it is exact whatever order the
    product sums in.  Otherwise the first coordinate's squared difference
    is written into the block and the others are added one at a time.
    """
    n, d = X.shape
    weights = [members.astype(np.float64) for members in memberships]
    sums = [np.empty((n, w.shape[1])) for w in weights]
    blocks = _row_blocks(n)
    block = np.empty((max(stop - start for start, stop in blocks), n))
    scale = integral_scale(X)
    integral = scale is not None and 4.0 * d * scale * scale < 2.0**53
    if integral:
        right = np.empty((d + 2, n))
        np.multiply(X.T, -2.0, out=right[:d])
        right[d] = 1.0
        right[d + 1] = np.einsum("ij,ij->i", X, X)
        # Each block's rows of [x, |x|^2, 1] are copied in as it is built.
        left = np.empty((len(block), d + 2))
        left[:, d + 1] = 1.0
    else:
        columns = np.ascontiguousarray(X.T)
        diff = np.empty((_DIFF_ROWS, n))
    for start, stop in blocks:
        sq = block[: stop - start]
        if integral:
            rows = left[: stop - start]
            rows[:, :d] = X[start:stop]
            rows[:, d] = right[d + 1, start:stop]
            np.matmul(rows, right, out=sq)
        else:
            for lo in range(start, stop, _DIFF_ROWS):
                hi = min(lo + _DIFF_ROWS, stop)
                part, step = sq[lo - start : hi - start], diff[: hi - lo]
                np.subtract(X[lo:hi, 0, None], columns[0], out=part)
                np.multiply(part, part, out=part)
                for j in range(1, d):
                    np.subtract(X[lo:hi, j, None], columns[j], out=step)
                    np.multiply(step, step, out=step)
                    part += step
        np.sqrt(sq, out=sq)
        for w, out in zip(weights, sums):
            np.matmul(sq, w, out=out[start:stop])
    return sums


def silhouette_samples(data: np.ndarray, assignments: Sequence) -> np.ndarray:
    """Per-point silhouette values in the given feature space: an (n,) array
    for one labeling, or an (m, n) array for an (m, n) stack of labelings,
    one row each.

    For each point, ``a`` is its mean Euclidean distance to the rest of its
    own cluster and ``b`` the smallest mean distance to another cluster;
    the value is ``(b - a) / max(a, b)``.  Singleton clusters score 0, as do
    points where both means vanish.

    The per-cluster distance sums are built a block of rows at a time, so
    the distances take O(_BLOCK_ENTRIES + n) memory, not n * n.  A stack's
    labelings share each block, so the distances are built once for all of
    them, and each row equals (==) what that labeling gets alone.  One of
    two exact paths builds each block: integer ratings (any raw category)
    take one product of augmented rows, ``|x|^2 + |y|^2 - 2 x.y``, whose
    squared distances are exact integers; any other input, such as PCA
    scores, sums squared coordinate differences in coordinate order.  Both
    give each distance the bits of scipy's ``cdist``, and the sums those of
    ``cdist(X, X) @ members``.
    """
    X = data_matrix(data)
    n = X.shape[0]
    labels = np.asarray(assignments)
    if labels.ndim not in (1, 2) or labels.shape[-1] != n:
        count = labels.shape[-1] if labels.ndim else 0
        raise Error(f"{count} assignments for {n} points")
    stack = np.atleast_2d(labels)
    if stack.shape[0] == 0:
        raise Error("silhouette needs at least one labeling")
    memberships = []
    for row in stack:
        unique = _unique(row)
        if unique.size < 2:
            raise Error("silhouette needs at least 2 distinct clusters")
        memberships.append(row[:, None] == unique[None, :])
    values = np.empty(stack.shape)
    for out, members, cluster_sums in zip(values, memberships, _distance_sums(X, memberships)):
        sizes = members.sum(axis=0)
        own = members.argmax(axis=1)
        own_size = sizes[own]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = cluster_sums[np.arange(n), own] / (own_size - 1)
            mean_to = cluster_sums / sizes[None, :]
            mean_to[np.arange(n), own] = np.inf
            b = mean_to.min(axis=1)
            s = (b - a) / np.maximum(a, b)
        s[own_size == 1] = 0.0
        s[np.maximum(a, b) == 0.0] = 0.0
        out[:] = np.nan_to_num(s, nan=0.0, posinf=0.0, neginf=0.0)
    return values if labels.ndim == 2 else values[0]


def silhouette(data: np.ndarray, assignments: Sequence) -> float | np.ndarray:
    """Mean per-point silhouette value, or an (m,) array of one mean per
    labeling for an (m, n) stack of labelings."""
    values = silhouette_samples(data, assignments)
    return float(values.mean()) if values.ndim == 1 else values.mean(axis=1)


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


def evaluate(
    labels_true: Sequence, fits: Sequence[tuple[str, np.ndarray, km.ClusteringResult]]
) -> list[EvaluationReport]:
    """Score ``(method, space, result)`` fits of the same rows against true
    class labels, one report per fit, in order.

    ``space`` is the matrix the fit clustered: the silhouette is geometric,
    so it is taken there (the PCA scores for a ``pca-based`` fit).  Fits
    that pass the same ``space`` object share one ``silhouette`` call over
    their stacked assignments, so that space's distances are built once.
    Each score equals the one its result gets alone.
    """
    groups: dict[int, list[int]] = {}
    for i, (_, space, _) in enumerate(fits):
        groups.setdefault(id(space), []).append(i)
    scores = np.empty(len(fits))
    for group in groups.values():
        stack = np.stack([fits[i][2].assignments for i in group])
        scores[group] = silhouette(fits[group[0]][1], stack)
    reports = []
    for (method, _, result), score in zip(fits, scores.tolist()):
        table = contingency(labels_true, result.assignments)
        homogeneity, completeness, v_measure = homogeneity_completeness_v(table)
        reports.append(
            EvaluationReport(
                method=method,
                elapsed=result.elapsed,
                homogeneity=homogeneity,
                completeness=completeness,
                v_measure=v_measure,
                ari=adjusted_rand(table),
                ami=adjusted_mutual_information(table),
                silhouette=score,
            )
        )
    return reports


# k-means with kmeans++ seeding on a category's PCA scores.
METHOD_PCA = "pca-based"

ALL_METHODS: tuple[str, ...] = (km.INIT_KMEANSPP, km.INIT_RANDOM, METHOD_PCA)

# Every method name a comparison accepts, with the method it stands for:
# ``pca`` is short for ``pca-based``.
METHOD_NAMES: Mapping[str, str] = {m: m for m in ALL_METHODS} | {"pca": METHOD_PCA}

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
    category-major in the requested order.  An unknown or repeated category
    name, an unknown method name, or one that stands for a method already
    named raises :class:`Error` before any fit.  The ``pca-based`` method
    fits a :data:`PCA_DIMS`-component PCA to the category when its turn
    comes, and clusters the scores.
    """
    if categories is None:
        categories = dataset.catalog.category_names
    for i, name in enumerate(categories):
        dataset.catalog.category_slice(name)  # raises on an unknown name
        if name in categories[:i]:
            raise Error(f"repeated category: {name!r}")
    resolved: list[str] = []
    for name in methods:
        method = METHOD_NAMES.get(name) if isinstance(name, str) else None
        if method is None:
            raise Error(f"unknown method {name!r}; expected one of {ALL_METHODS}")
        if method in resolved:
            raise Error(f"repeated method: {method!r}")
        resolved.append(method)
    n_cells = len(categories) * len(resolved)
    cell_seeds = iter(np.random.SeedSequence(check_seed(seed)).generate_state(n_cells, np.uint64))
    rows: list[tuple[str, EvaluationReport]] = []
    for category in categories:
        X = dataset.feature_matrix(category)
        fits = []
        for method in resolved:
            config = km.KmeansConfig(
                k=k,
                init=km.INIT_RANDOM if method == km.INIT_RANDOM else km.INIT_KMEANSPP,
                seed=int(next(cell_seeds)),
                restarts=restarts,
            )
            space = pca.project(pca.fit_pca(X, PCA_DIMS), X) if method == METHOD_PCA else X
            fits.append((method, space, km.fit(space, config)))
        rows.extend((category, report) for report in evaluate(dataset.type_codes, fits))
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
