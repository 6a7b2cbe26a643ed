"""Lloyd's k-means with two initialization regimes.

``kmeans++`` seeds by distance-squared-weighted sampling and ``random`` picks
k distinct rows.  A fit clusters exactly the rows it is given; a caller that
wants clusters in a PCA space projects first.  Fits restart from several
seeds and keep the lowest inertia.  All randomness flows through one u64
seed, so identical inputs give identical results.

On integer data small enough for float32 (see :func:`_exact_float32`), the
kmeans++ distances and the centroid sums are float32 products: their
partial sums are integers below 2**24, so they are exact in any summation
order and every result has the bits of the float64 route it replaces.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .domain import check_int, check_real, check_seed, data_matrix, float_array, integral_scale
from .errors import Error

INIT_KMEANSPP = "kmeans++"
INIT_RANDOM = "random"

DEFAULT_MAX_ITERS = 300
DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 10
# A fit draws all its restart seeds as one u64 array: 8 MB at this bound.
MAX_RESTARTS = 10**6
# float32 holds every integer up to 2**24 exactly.
_FLOAT32_EXACT = 2.0**24


@dataclass(frozen=True)
class KmeansConfig:
    """Fit parameters.  ``k``, ``max_iters`` and ``restarts`` are integers
    of at least 1, ``restarts`` at most :data:`MAX_RESTARTS`, and ``seed``
    an unsigned 64-bit integer (a ``bool`` is none of these), all stored as
    plain ints; ``tol`` is a non-negative real number, stored as a float."""

    k: int
    init: str = INIT_KMEANSPP
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self) -> None:
        for name in ("k", "max_iters", "restarts"):
            value = check_int(getattr(self, name), name)
            if value < 1:
                raise Error(f"{name} must be at least 1, got {value}")
            object.__setattr__(self, name, value)
        if self.restarts > MAX_RESTARTS:
            raise Error(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        if not isinstance(self.init, str) or self.init not in (INIT_KMEANSPP, INIT_RANDOM):
            raise Error(f"init must be {INIT_KMEANSPP!r} or {INIT_RANDOM!r}, got {self.init!r}")
        if not check_real(self.tol, "tol") >= 0:
            raise Error(f"tol must be non-negative, got {self.tol}")
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """One fitted clustering: per-row assignments, the centroids they are
    nearest to, total within-cluster squared distance, and bookkeeping."""

    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    elapsed: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _sq_distances(X: np.ndarray, row_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, clipped at zero.  ``row_norms`` is
    ``(X * X).sum(axis=1)``, computed once per Lloyd run by the caller.

    Evaluates ``row_norms - 2 X C^T + |C|^2`` left to right in one buffer;
    negating the product and adding the norms to it gives the same bits as
    subtracting it from them.
    """
    d2 = X @ centroids.T
    d2 *= -2.0
    d2 += row_norms[:, None]
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _exact_float32(X: np.ndarray) -> np.ndarray | None:
    """``X`` as float32 when its entries are integers with
    ``max|x| ** 2 * d`` and ``max|x| * n`` both below 2**24, else ``None``.

    Within the first bound every partial sum of a dot product of two rows
    is an integer below 2**24; within the second so is every partial sum of
    a column over any set of rows.  float32 holds them all exactly.
    """
    n, d = X.shape
    scale = integral_scale(X)
    if scale is None or not (scale * scale * d < _FLOAT32_EXACT and scale * n < _FLOAT32_EXACT):
        return None
    return X.astype(np.float32)


def _seeding(data: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, int, np.random.Generator]:
    """The data matrix, centroid count and generator of a seeding, each checked."""
    X = data_matrix(data)
    k = check_int(k, "k")
    if not 1 <= k <= X.shape[0]:
        raise Error(f"cannot seed {k} centroids from {X.shape[0]} points")
    return X, k, np.random.default_rng(check_seed(seed))


def init_kmeanspp(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Distance-squared-weighted seeding: the first centroid is a uniform row,
    each later one is drawn with probability proportional to the squared
    distance to the nearest centroid chosen so far.

    When every remaining distance is zero (duplicated points), falls back to a
    uniform draw among not-yet-chosen rows, so k distinct indices always come
    back while distinct rows exist.

    Each new distance column is ``((X - y) ** 2).sum(axis=1)``.  On data
    within :func:`_exact_float32`'s bounds it is taken as
    ``(|x|^2 + |y|^2) - 2 x.y`` with a float32 product instead: the same
    exact integers, so every draw is the same.
    """
    X, k, rng = _seeding(data, k, seed)
    n = X.shape[0]
    X32 = _exact_float32(X)
    row_norms = None if X32 is None else np.einsum("ij,ij->i", X, X)

    def distances(i: int) -> np.ndarray:
        if X32 is None:
            return ((X - X[i]) ** 2).sum(axis=1)
        d2 = row_norms + row_norms[i]
        d2 -= 2.0 * (X32 @ X32[i])
        return d2

    chosen = [int(rng.integers(n))]
    d2 = distances(chosen[0])
    while len(chosen) < k:
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        d2 = np.minimum(d2, distances(idx))
    return X[np.asarray(chosen)].copy()


def init_random(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k distinct data rows drawn uniformly without replacement."""
    X, k, rng = _seeding(data, k, seed)
    return X[rng.choice(X.shape[0], size=k, replace=False)].copy()


def _repair_empty(
    X: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    d2min: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Give every empty cluster the point currently farthest from its centroid.

    The seized point becomes the new centroid; ``centroids``, ``labels``,
    ``d2min`` and the per-cluster ``counts`` are updated in place.  Repeats
    until no repairable empties remain; a cluster can stay empty only when
    the data has fewer distinct points than clusters.
    """
    if counts.all():
        return
    seizable = d2min.copy()
    while True:
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        j = int(empties[0])
        far = int(np.argmax(seizable))
        if not seizable[far] > 0.0:
            return  # all points coincide with centroids; nothing to split off
        donor = labels[far]
        counts[donor] -= 1
        labels[far] = j
        counts[j] = 1
        centroids[j] = X[far]
        d2min[far] = 0.0
        seizable[far] = -np.inf


def _mean_update(
    X: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    fallback: np.ndarray,
    X32: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cluster means of the rows of ``X``; an empty cluster keeps its
    ``fallback`` row.

    ``X32`` is ``X`` as :func:`_exact_float32` returns it.  When given, the
    sums are one float32 product ``onehot(labels) @ X32``: exact integers in
    any summation order.  Otherwise one weighted bincount over the flattened
    (label, column) cell index adds each cluster's rows in row order, as
    ``np.add.at`` would, so the sums are bit-identical to that sequential
    update for float data too.  Either way they are divided in float64.
    """
    k = counts.shape[0]
    n, d = X.shape
    if X32 is not None:
        onehot = np.zeros((k, n), np.float32)
        onehot[labels, np.arange(n)] = 1.0
        sums = (onehot @ X32).astype(np.float64)
    else:
        cells = ((labels * d)[:, None] + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=X.ravel(), minlength=k * d).reshape(k, d)
    out = fallback.copy()
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled, None]
    return out


def lloyd(data: np.ndarray, init_centroids: np.ndarray, config: KmeansConfig) -> ClusteringResult:
    """Alternate assignment and mean updates from the given starting centroids.

    Stops once the largest centroid movement is at most ``config.tol`` (so
    ``tol = 0`` stops at an exact fixed point) or after ``config.max_iters``
    rounds.  The returned assignments are computed against the returned
    centroids, so every point is labeled with its true nearest centroid, and
    the within-cluster squared-distance total never increases across
    iterations.
    """
    X = data_matrix(data)
    start = time.perf_counter()
    centroids = float_array(init_centroids, "centroids").copy()
    if centroids.ndim != 2 or centroids.shape[1] != X.shape[1]:
        raise Error(f"centroids of shape {centroids.shape} do not match data {X.shape}")
    k = centroids.shape[0]
    X32 = _exact_float32(X)
    row_norms = (X * X).sum(axis=1)
    rows = np.arange(X.shape[0])
    iterations = 0
    for _ in range(config.max_iters):
        d2 = _sq_distances(X, row_norms, centroids)
        labels = np.argmin(d2, axis=1)
        d2min = d2[rows, labels]
        counts = np.bincount(labels, minlength=k)
        _repair_empty(X, centroids, labels, d2min, counts)
        updated = _mean_update(X, labels, counts, fallback=centroids, X32=X32)
        movement = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max())
        centroids = updated
        iterations += 1
        if movement <= config.tol:
            break
    # Final pass: label against the final centroids so the result is coherent.
    d2 = _sq_distances(X, row_norms, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[rows, labels].sum())
    return ClusteringResult(
        assignments=labels,
        centroids=centroids,
        inertia=inertia,
        iterations=iterations,
        elapsed=time.perf_counter() - start,
    )


def fit(data: np.ndarray, config: KmeansConfig) -> ClusteringResult:
    """Cluster the rows of ``data`` per ``config``: seeded restarts, keep the
    lowest-inertia run.

    Restart seeds are spawned from ``config.seed``, so the whole fit is a pure
    function of (data, config).
    """
    X = data_matrix(data)
    start = time.perf_counter()
    seeds = np.random.SeedSequence(config.seed).generate_state(config.restarts, np.uint64)
    seeding = init_random if config.init == INIT_RANDOM else init_kmeanspp
    best: ClusteringResult | None = None
    for restart_seed in seeds:
        result = lloyd(X, seeding(X, config.k, int(restart_seed)), config)
        if best is None or result.inertia < best.inertia:
            best = result
    return replace(best, elapsed=time.perf_counter() - start)


def result_to_json(result: ClusteringResult, method: str) -> str:
    """JSON document with the caller's method name, k, inertia, iterations,
    elapsed seconds, and the per-row assignment list."""
    doc = {
        "method": method,
        "k": result.k,
        "inertia": result.inertia,
        "iterations": result.iterations,
        "elapsed_seconds": result.elapsed,
        "assignments": [int(a) for a in result.assignments],
    }
    return json.dumps(doc, indent=2) + "\n"


def assignments_to_csv(result: ClusteringResult, respondent_ids: Sequence[str]) -> str:
    """CSV text pairing each respondent id with its cluster index."""
    if len(respondent_ids) != len(result.assignments):
        raise Error(f"{len(respondent_ids)} ids for {len(result.assignments)} assignments")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["respondent_id", "cluster"])
    for rid, label in zip(respondent_ids, result.assignments):
        writer.writerow([rid, int(label)])
    return buf.getvalue()
