"""Descriptive views of a survey: joint rating tables for genre pairs,
inclination summaries, and projected scatter exports for plotting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import (
    ENJOYMENT_THRESHOLD,
    RATING_MAX,
    TYPE_INDEX,
    Dataset,
    MbtiType,
    parse_mbti,
)
from .errors import DimensionMismatch, LengthMismatch, SchemaMismatch

N_RATINGS = RATING_MAX + 1


@dataclass(frozen=True, eq=False)
class PairRatingTable:
    """7x7 joint rating counts for two genres among one type's respondents.

    ``counts[i, j]`` is the number of respondents of the type who rated
    ``genre_a`` as ``i`` and ``genre_b`` as ``j``.
    """

    mbti: MbtiType
    genre_a: str
    genre_b: str
    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N_RATINGS, N_RATINGS):
            raise DimensionMismatch(
                f"pair table must be {N_RATINGS}x{N_RATINGS}, got {c.shape}"
            )
        if np.any(c < 0):
            raise SchemaMismatch("pair table counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def marginal_a(self) -> np.ndarray:
        """Per-rating counts for genre_a (length 7)."""
        return self.counts.sum(axis=1)

    @property
    def marginal_b(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def pair_rating_table(
    dataset: Dataset, mbti: MbtiType | str, genre_a: str, genre_b: str
) -> PairRatingTable:
    """Cross-tabulate two genres' ratings for one personality type.

    The table totals the number of respondents of that type; a type absent
    from the dataset yields an all-zero table.
    """
    t = parse_mbti(mbti)
    ia = dataset.catalog.index(genre_a)
    ib = dataset.catalog.index(genre_b)
    rows = dataset.ratings[dataset.type_codes == TYPE_INDEX[t]]
    cells = rows[:, ia].astype(np.intp) * N_RATINGS + rows[:, ib]
    counts = np.bincount(cells, minlength=N_RATINGS * N_RATINGS).reshape(N_RATINGS, N_RATINGS)
    return PairRatingTable(mbti=t, genre_a=genre_a, genre_b=genre_b, counts=counts)


def pair_table_to_csv(table: PairRatingTable) -> str:
    """CSV text: metadata comment lines, a ``b=0..b=6`` header, then one row
    per rating of genre_a."""
    buf = io.StringIO()
    buf.write(f"# type={table.mbti.value}\n")
    buf.write(f"# genre_a={table.genre_a}\n")
    buf.write(f"# genre_b={table.genre_b}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"b={j}" for j in range(N_RATINGS)])
    for i in range(N_RATINGS):
        writer.writerow([int(x) for x in table.counts[i]])
    return buf.getvalue()


@dataclass(frozen=True)
class GenreLean:
    """Experience-aware preference summary of one genre within a pair table."""

    mean: float | None
    enjoyment_share: float | None
    raters: int


@dataclass(frozen=True)
class InclinationSummary:
    """Which of two genres a type leans toward, ignoring no-experience marks."""

    mbti: MbtiType
    genre_a: str
    genre_b: str
    a: GenreLean
    b: GenreLean

    @property
    def leaning(self) -> str | None:
        """Name of the genre with the higher mean, or None when undecidable."""
        if self.a.mean is None or self.b.mean is None or self.a.mean == self.b.mean:
            return None
        return self.genre_a if self.a.mean > self.b.mean else self.genre_b


def _lean(marginal: np.ndarray) -> GenreLean:
    raters = int(marginal[1:].sum())
    if raters == 0:
        return GenreLean(mean=None, enjoyment_share=None, raters=0)
    ratings = np.arange(1, N_RATINGS)
    mean = float((ratings * marginal[1:]).sum() / raters)
    enjoyers = int(marginal[ENJOYMENT_THRESHOLD:].sum())
    return GenreLean(mean=mean, enjoyment_share=enjoyers / raters, raters=raters)


def inclination(table: PairRatingTable) -> InclinationSummary:
    """Mean rating and enjoyment share per genre, over respondents with
    experience of it (rating 0 rows and columns are excluded)."""
    return InclinationSummary(
        mbti=table.mbti,
        genre_a=table.genre_a,
        genre_b=table.genre_b,
        a=_lean(table.marginal_a),
        b=_lean(table.marginal_b),
    )


@dataclass(frozen=True)
class ScatterRow:
    """One plottable point: projected coordinates plus display attributes.

    Centroid rows carry an empty ``mbti`` and ``is_centroid=True``; rows from
    an unclustered export have ``cluster=None``.
    """

    coords: tuple[float, ...]
    mbti: str
    cluster: int | None
    is_centroid: bool = False


def scatter_export(
    coords: np.ndarray,
    types: Sequence[MbtiType | str],
    assignments: Sequence[int] | None = None,
) -> list[ScatterRow]:
    """Turn projected coordinates into scatter rows.

    With ``assignments`` given, one centroid row per cluster is appended,
    placed at the mean of the cluster's projected points (the projection is
    affine, so this is the projected centroid).
    """
    Z = np.asarray(coords, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] not in (2, 3):
        raise DimensionMismatch(f"coordinates must be (n, 2) or (n, 3), got {Z.shape}")
    if len(types) != Z.shape[0]:
        raise LengthMismatch(f"{len(types)} type labels for {Z.shape[0]} points")
    labels: np.ndarray | None = None
    if assignments is not None:
        labels = np.asarray(assignments, dtype=np.int64)
        if labels.shape != (Z.shape[0],):
            raise LengthMismatch(
                f"{labels.size} assignments for {Z.shape[0]} points"
            )
    rows = [
        ScatterRow(
            coords=tuple(float(v) for v in Z[i]),
            mbti=parse_mbti(types[i]).value,
            cluster=None if labels is None else int(labels[i]),
        )
        for i in range(Z.shape[0])
    ]
    if labels is not None:
        for cluster in np.unique(labels):
            center = Z[labels == cluster].mean(axis=0)
            rows.append(
                ScatterRow(
                    coords=tuple(float(v) for v in center),
                    mbti="",
                    cluster=int(cluster),
                    is_centroid=True,
                )
            )
    return rows


def scatter_to_csv(rows: Sequence[ScatterRow]) -> str:
    """CSV text with ``pc1,pc2[,pc3],mbti,cluster,is_centroid`` columns."""
    if not rows:
        raise LengthMismatch("no scatter rows to serialize")
    dims = len(rows[0].coords)
    if any(len(r.coords) != dims for r in rows):
        raise DimensionMismatch("scatter rows mix 2-D and 3-D coordinates")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*(f"pc{i + 1}" for i in range(dims)), "mbti", "cluster", "is_centroid"])
    for row in rows:
        writer.writerow(
            [
                *(repr(v) for v in row.coords),
                row.mbti,
                "" if row.cluster is None else row.cluster,
                int(row.is_centroid),
            ]
        )
    return buf.getvalue()
