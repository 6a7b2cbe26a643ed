"""Independent reference implementations used only by tests.

Each oracle takes a different computational route than the library code it
checks: entropy-based scores are recomputed from conditional entropies over
probability tables, the pair-counting index from explicit pair enumeration,
expected MI from exhaustive permutation averaging, eigendecomposition from
cyclic Jacobi rotations, and silhouettes from a direct O(n^2) loop.  The
Lloyd reference is the exception: it must match the library bit for bit, so
it uses the same distance expression but the plainest route for everything
else (full recomputation each round, one-row-at-a-time ``np.add.at`` sums).
The survey oracles read, tally and average one record at a time, as the
package did before it held the survey as columns.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from itertools import permutations, product

import numpy as np

from typetaste.domain import ALL_TYPES, ENJOYMENT_THRESHOLD, default_catalog, parse_mbti
from typetaste.errors import DuplicateRespondent, InvalidRating, SchemaMismatch
from typetaste.ingest import RESPONDENT_ID_RE


def contingency_oracle(labels_true, labels_pred) -> np.ndarray:
    """Joint counts, each label sequence coded one label at a time through a
    dict of first appearances (numpy scalars keyed by their Python value)."""

    def codes(labels):
        index: dict = {}
        out = np.empty(len(labels), dtype=np.int64)
        for i, value in enumerate(labels):
            key = value.item() if isinstance(value, np.generic) else value
            out[i] = index.setdefault(key, len(index))
        return out

    rows, cols = codes(labels_true), codes(labels_pred)
    counts = np.zeros((rows.max() + 1, cols.max() + 1), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


def entropy_oracle(labels) -> float:
    n = len(labels)
    counts = Counter(labels)
    return -sum((c / n) * math.log(c / n) for c in counts.values())


def conditional_entropy_oracle(labels_c, labels_k) -> float:
    """H(C | K) from the joint and conditional distributions."""
    n = len(labels_c)
    joint = Counter(zip(labels_c, labels_k))
    k_counts = Counter(labels_k)
    h = 0.0
    for (_, k), count in joint.items():
        h -= (count / n) * math.log(count / k_counts[k])
    return h


def mutual_information_oracle(labels_a, labels_b) -> float:
    """MI as H(A) - H(A | B)."""
    return entropy_oracle(labels_a) - conditional_entropy_oracle(labels_a, labels_b)


def hcv_oracle(labels_true, labels_pred) -> tuple[float, float, float]:
    """Homogeneity, completeness, V-measure from conditional entropies."""
    h_true = entropy_oracle(labels_true)
    h_pred = entropy_oracle(labels_pred)
    if h_true == 0.0:
        homogeneity = 1.0
    else:
        homogeneity = 1.0 - conditional_entropy_oracle(labels_true, labels_pred) / h_true
    if h_pred == 0.0:
        completeness = 1.0
    else:
        completeness = 1.0 - conditional_entropy_oracle(labels_pred, labels_true) / h_pred
    if homogeneity + completeness == 0.0:
        v = 0.0
    else:
        v = 2.0 * homogeneity * completeness / (homogeneity + completeness)
    return homogeneity, completeness, v


def adjusted_rand_oracle(labels_a, labels_b) -> float:
    """Chance-corrected Rand index from explicit same/different pair counts."""
    n = len(labels_a)
    together_both = 0
    together_a = 0
    together_b = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            together_both += same_a and same_b
            together_a += same_a
            together_b += same_b
            total += 1
    expected = together_a * together_b / total
    maximum = (together_a + together_b) / 2.0
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


def expected_mi_permutation_oracle(labels_a, labels_b) -> float:
    """Average MI over every permutation of the second labeling's positions.

    Exhaustive, so only feasible for small n; this is the model the
    closed-form expected-MI computation must agree with.
    """
    n = len(labels_b)
    total = 0.0
    count = 0
    for perm in permutations(range(n)):
        permuted = [labels_b[i] for i in perm]
        total += mutual_information_oracle(labels_a, permuted)
        count += 1
    return total / count


def silhouette_oracle(data, labels) -> float:
    """Mean silhouette via a direct per-point loop over cluster distances."""
    X = np.asarray(data, dtype=np.float64)
    labels = list(labels)
    n = len(labels)
    clusters: dict = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    scores = []
    for i in range(n):
        own = clusters[labels[i]]
        if len(own) == 1:
            scores.append(0.0)
            continue
        a = sum(
            float(np.linalg.norm(X[i] - X[j])) for j in own if j != i
        ) / (len(own) - 1)
        b = math.inf
        for lab, members in clusters.items():
            if lab == labels[i]:
                continue
            mean_d = sum(float(np.linalg.norm(X[i] - X[j])) for j in members) / len(members)
            b = min(b, mean_d)
        worst = max(a, b)
        scores.append(0.0 if worst == 0.0 else (b - a) / worst)
    return sum(scores) / n


def best_partition_sse_oracle(data, k) -> float:
    """Minimum within-cluster squared-distance total over every assignment of
    the points into at most k clusters (exhaustive; tiny n only)."""
    X = np.asarray(data, dtype=np.float64)
    n = X.shape[0]
    best = math.inf
    for assignment in product(range(k), repeat=n):
        sse = 0.0
        for cluster in set(assignment):
            members = X[[i for i in range(n) if assignment[i] == cluster]]
            center = members.mean(axis=0)
            sse += float(((members - center) ** 2).sum())
        best = min(best, sse)
    return best


def lloyd_oracle(data, init_centroids, max_iters: int, tol: float):
    """Plain Lloyd iteration from ``init_centroids``.

    Each round recomputes every squared distance, gives each empty cluster
    the farthest point not yet seized (while that point is off its
    centroid), accumulates each cluster's rows one at a time with
    ``np.add.at``, and stops once the largest centroid movement is at most
    ``tol``.  Returns (labels, centroids, inertia, iterations), labels and
    inertia taken against the final centroids.
    """
    X = np.asarray(data, dtype=np.float64)
    C = np.array(init_centroids, dtype=np.float64, copy=True)
    k = C.shape[0]

    def sq_distances(C):
        d2 = (
            (X * X).sum(axis=1)[:, None]
            - 2.0 * (X @ C.T)
            + (C * C).sum(axis=1)[None, :]
        )
        return np.clip(d2, 0.0, None)

    iterations = 0
    for _ in range(max_iters):
        d2 = sq_distances(C)
        labels = np.argmin(d2, axis=1)
        d2min = np.take_along_axis(d2, labels[:, None], axis=1).ravel()
        seizable = d2min.copy()
        while (np.bincount(labels, minlength=k) == 0).any():
            far = int(np.argmax(seizable))
            if not seizable[far] > 0.0:
                break
            empty = int(np.flatnonzero(np.bincount(labels, minlength=k) == 0)[0])
            labels[far] = empty
            C[empty] = X[far]
            seizable[far] = -np.inf
        sums = np.zeros_like(C)
        np.add.at(sums, labels, X)
        counts = np.bincount(labels, minlength=k)
        updated = C.copy()
        updated[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        movement = float(np.sqrt(((updated - C) ** 2).sum(axis=1)).max())
        C = updated
        iterations += 1
        if movement <= tol:
            break
    d2 = sq_distances(C)
    labels = np.argmin(d2, axis=1)
    inertia = float(np.take_along_axis(d2, labels[:, None], axis=1).sum())
    return labels, C, inertia, iterations


def jacobi_eigh_oracle(matrix, sweeps: int = 100, tol: float = 1e-14):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors in the columns, like a plain dense eigensolver would.
    """
    A = np.array(matrix, dtype=np.float64, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(1.0, float(np.abs(np.diag(A)).max()))
    for _ in range(sweeps):
        off = math.sqrt(max(0.0, float((A * A).sum() - (np.diag(A) ** 2).sum())))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                vec_p, vec_q = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vec_p - s * vec_q
                V[:, q] = s * vec_p + c * vec_q
    eigenvalues = np.diag(A).copy()
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], V[:, order]


def load_dataset_oracle(path, catalog=None):
    """Row-by-row survey CSV reader: (ids, types, int64 rating matrix), or the
    first error in the file, checked cell by cell in file order."""
    catalog = catalog if catalog is not None else default_catalog()
    expected = ["respondent_id", "mbti", *catalog.genres]
    ids, types, matrix = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaMismatch(
                f"header does not match catalog ({len(expected)} columns expected); "
                f"got {header[:4] if header else header}..."
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise SchemaMismatch(
                    f"line {lineno}: expected {len(expected)} columns, got {len(row)}"
                )
            rid = row[0]
            if not RESPONDENT_ID_RE.match(rid):
                raise SchemaMismatch(
                    f"line {lineno}: respondent id must match [A-Za-z0-9_-]+, got {rid!r}"
                )
            if rid in ids:
                raise DuplicateRespondent(f"line {lineno}: duplicate respondent id {rid!r}")
            mbti = parse_mbti(row[1])
            ratings = []
            for cell, genre in zip(row[2:], catalog.genres):
                if not (cell.isascii() and cell.isdigit()):
                    raise InvalidRating(
                        f"line {lineno}, column {genre!r}: ratings must be "
                        f"integers 0..6, got {cell!r}"
                    )
                value = int(cell)
                if value > 6:
                    raise InvalidRating(
                        f"line {lineno}, column {genre!r}: rating out of range: {value}"
                    )
                ratings.append(value)
            ids.append(rid)
            types.append(mbti)
            matrix.append(ratings)
    return tuple(ids), tuple(types), np.array(matrix, dtype=np.int64).reshape(-1, len(catalog))


def profiles_oracle(records, n_genres):
    """Per-type (mean, enjoyment share, support) over experienced raters,
    tallied one record at a time; NaN where a type has no rater."""
    sums = {t: [0] * n_genres for t in ALL_TYPES}
    raters = {t: [0] * n_genres for t in ALL_TYPES}
    enjoyers = {t: [0] * n_genres for t in ALL_TYPES}
    for rec in records:
        for g, rating in enumerate(rec.ratings):
            if rating > 0:
                sums[rec.mbti][g] += rating
                raters[rec.mbti][g] += 1
                enjoyers[rec.mbti][g] += rating >= ENJOYMENT_THRESHOLD
    out = {}
    for t in ALL_TYPES:
        support = np.array(raters[t], dtype=np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(support > 0, np.array(sums[t]) / support, np.nan)
            share = np.where(support > 0, np.array(enjoyers[t]) / support, np.nan)
        out[t] = (mean, share, support)
    return out


def pair_table_oracle(records, mbti, ia, ib):
    """7x7 joint counts of two rating columns among one type's records."""
    counts = np.zeros((7, 7), dtype=np.int64)
    for rec in records:
        if rec.mbti is mbti:
            counts[rec.ratings[ia], rec.ratings[ib]] += 1
    return counts


def ranking_oracle(catalog, profile, category=None, ratings=None, blend_weight=0.5):
    """Every candidate genre as ``(genre, category, score, support,
    low_support)``, best first, scored one genre at a time from a
    :func:`profiles_oracle` entry.

    A genre's score is the type mean (0 where the type has no rater).  Given
    a user's ``ratings``, a genre they rated 1 or 2 is left out, and one they
    rated higher scores ``blend_weight`` toward their own rating (their
    rating alone where the type has no rater).  Fewer than 5 raters is low
    support.  Sorted by descending score, then genre name.
    """
    mean, _, support = profile
    items = []
    column = 0
    for name, genres in catalog.categories:
        for genre in genres:
            g, column = column, column + 1
            if category not in (None, name):
                continue
            type_mean = float(mean[g])
            score = 0.0 if math.isnan(type_mean) else type_mean
            if ratings is not None and ratings[g] > 0:
                if ratings[g] <= 2:
                    continue
                own = float(ratings[g])
                if math.isnan(type_mean):
                    score = own
                else:
                    score = blend_weight * own + (1.0 - blend_weight) * type_mean
            items.append((genre, name, score, int(support[g]), int(support[g]) < 5))
    return sorted(items, key=lambda item: (-item[2], item[0]))
