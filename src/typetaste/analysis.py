"""Descriptive views of a survey: joint rating tables for genre pairs, which
genre of a pair a type leans toward (read from the recommender's
:class:`~typetaste.recommend.ProfileSet`, so the taste rule lives in one
place), and the CSV export of PCA-projected points, with their type labels,
clusters and centroids, for plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .domain import ALL_TYPES, RATING_MAX, Dataset, float_array, type_code
from .errors import Error
from .recommend import ProfileSet

N_RATINGS = RATING_MAX + 1

_TYPE_VALUES = np.array(ALL_TYPES)


def pair_rating_table(
    dataset: Dataset, mbti: str, genre_a: str, genre_b: str
) -> np.ndarray:
    """7x7 int64 joint rating counts for two genres among one type's
    respondents: ``counts[i, j]`` respondents rated ``genre_a`` as ``i`` and
    ``genre_b`` as ``j``.  A type absent from the dataset yields all zeros.
    """
    code = type_code(mbti)
    ia = dataset.catalog.index(genre_a)
    ib = dataset.catalog.index(genre_b)
    rows = dataset.ratings[dataset.type_codes == code]
    cells = rows[:, ia].astype(np.intp) * N_RATINGS + rows[:, ib]
    return np.bincount(cells, minlength=N_RATINGS * N_RATINGS).reshape(N_RATINGS, N_RATINGS)


def pair_table_to_csv(
    counts: np.ndarray, mbti: str, genre_a: str, genre_b: str
) -> str:
    """CSV text: metadata comment lines, a ``b=0..b=6`` header, then one row
    per rating of genre_a."""
    buf = io.StringIO()
    buf.write(f"# type={ALL_TYPES[type_code(mbti)]}\n")
    buf.write(f"# genre_a={genre_a}\n")
    buf.write(f"# genre_b={genre_b}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"b={j}" for j in range(N_RATINGS)])
    writer.writerows(counts.tolist())
    return buf.getvalue()


def inclination(
    profiles: ProfileSet, mbti: str, genre_a: str, genre_b: str
) -> str | None:
    """The genre of the pair with the higher profile mean for the type, that
    is over respondents with experience of it; None when the means are equal
    or either genre has no rater of the type."""
    means = profiles.mean[type_code(mbti)]
    a = means[profiles.catalog.index(genre_a)]
    b = means[profiles.catalog.index(genre_b)]
    if a > b:
        return genre_a
    if b > a:
        return genre_b
    return None  # equal, or a NaN mean


def scatter_to_csv(
    coords: np.ndarray,
    type_codes: np.ndarray,
    assignments: Sequence[int] | None = None,
    types: Sequence[str] | None = None,
) -> str:
    """CSV text with ``pc1,pc2[,pc3],mbti,cluster,is_centroid`` columns: one
    row per projected point, labelled with the type of its :data:`TYPE_INDEX`
    code.

    With ``assignments`` given, each point row carries its cluster and one
    centroid row per cluster follows, placed at the mean of the cluster's
    points in ``coords``.  ``scatter --with-clusters`` fits its clusters to
    these coordinates, so each such row is a centroid in the space the
    clusters were fitted in.  ``types``, when given, keeps only the point
    rows of those types; centroid rows are always written.
    """
    Z = float_array(coords, "coordinates")
    if Z.ndim != 2 or Z.shape[1] not in (2, 3):
        raise Error(f"coordinates must be (n, 2) or (n, 3), got {Z.shape}")
    codes = np.asarray(type_codes)
    if codes.shape != (Z.shape[0],):
        raise Error(f"{codes.size} type labels for {Z.shape[0]} points")
    if assignments is None:
        clusters = np.full(Z.shape[0], "")
        centroids = []
    else:
        clusters = np.asarray(assignments, dtype=np.int64)
        if clusters.shape != (Z.shape[0],):
            raise Error(f"{clusters.size} assignments for {Z.shape[0]} points")
        centroids = [
            [*map(repr, Z[clusters == c].mean(axis=0).tolist()), "", c, 1]
            for c in np.unique(clusters).tolist()
        ]
    if types is not None:
        keep = np.isin(codes, [type_code(t) for t in types])
        Z, codes, clusters = Z[keep], codes[keep], clusters[keep]
    if Z.shape[0] == 0 and not centroids:
        raise Error("no scatter rows to serialize")
    mbti = _TYPE_VALUES[codes].tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    dims = Z.shape[1]
    writer.writerow([*(f"pc{i + 1}" for i in range(dims)), "mbti", "cluster", "is_centroid"])
    writer.writerows(
        [*map(repr, xyz), t, c, 0] for xyz, t, c in zip(Z.tolist(), mbti, clusters.tolist())
    )
    writer.writerows(centroids)
    return buf.getvalue()
