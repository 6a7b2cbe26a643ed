"""Survey dataset I/O, frequency summaries, and synthetic data generation.

The dataset wire format is a strict CSV: header ``respondent_id,mbti`` followed
by one column per catalog genre, UTF-8, LF line endings, integer cells 0..6.
"""

from __future__ import annotations

import csv
import io
import operator
import re
import zlib
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .domain import (
    ALL_TYPES,
    PSYCHOLOGY,
    RATING_MAX,
    RELIGION_SPIRITUALITY,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    MbtiType,
    check_seed,
    default_catalog,
    parse_mbti,
    read_utf8,
    repeated_ids,
)
from .errors import (
    DuplicateRespondent,
    EmptyTable,
    Error,
    InvalidRating,
    SchemaMismatch,
)

# Respondent ids must be filename- and URL-safe so downstream CSV never needs
# quoting in the id column.
RESPONDENT_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# Per-type respondent counts of the 1020-entry reference survey, the profile
# behind the ``synth --paper-frequencies`` flag.  Insertion order is
# descending frequency.
SURVEY_TYPE_COUNTS: Mapping[str, int] = {
    "intp": 221,
    "intj": 160,
    "infj": 134,
    "infp": 111,
    "istp": 81,
    "entp": 76,
    "enfp": 71,
    "istj": 65,
    "isfj": 26,
    "isfp": 22,
    "entj": 17,
    "estp": 12,
    "enfj": 11,
    "esfp": 5,
    "estj": 5,
    "esfj": 3,
}

# The reference survey's four most frequent types, all introverted intuitives.
TOP_SURVEY_TYPES: tuple[str, ...] = tuple(SURVEY_TYPE_COUNTS)[:4]


@dataclass(frozen=True)
class TypeFrequencyTable:
    """Respondent counts per personality type, always covering all 16 types."""

    counts: Mapping[MbtiType, int]

    def __post_init__(self) -> None:
        raw = dict(self.counts)
        normalized: dict[MbtiType, int] = {}
        for key, value in raw.items():
            t = parse_mbti(key)
            try:
                v = operator.index(value)
            except TypeError:
                v = None
            if v is None or isinstance(value, bool):
                raise Error(f"count for {t} must be an integer, got {type(value).__name__}")
            if v < 0:
                raise Error(f"negative count for {t}: {v}")
            if t in normalized:
                raise Error(f"repeated type in frequency table: {t}")
            normalized[t] = v
        full = {t: normalized.get(t, 0) for t in ALL_TYPES}
        object.__setattr__(self, "counts", full)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, mbti: MbtiType | str) -> int:
        return self.counts[parse_mbti(mbti)]

    def __getitem__(self, mbti: MbtiType | str) -> int:
        return self.count(mbti)

    def items(self) -> tuple[tuple[MbtiType, int], ...]:
        """(type, count) pairs in canonical alphabetical type order."""
        return tuple((t, self.counts[t]) for t in ALL_TYPES)

    def ranked(self) -> tuple[tuple[MbtiType, int], ...]:
        """(type, count) pairs by descending count, ties in alphabetical order."""
        return tuple(sorted(self.items(), key=lambda tc: (-tc[1], tc[0].value)))


def survey_frequency_table() -> TypeFrequencyTable:
    """The reference survey's 1020-respondent frequency profile."""
    return TypeFrequencyTable(SURVEY_TYPE_COUNTS)


def planted_means(catalog: GenreCatalog) -> np.ndarray:
    """The (16, n_genres) mean rating per type and catalog genre that
    synthetic ratings are sampled around, rows in canonical type order.

    Each (type, genre) mean is a stable hash-derived point in ``[1, 5]``,
    so distinct types get distinct preference profiles without any RNG
    state.  When the catalog contains the named nonfiction genres, the
    four most frequent survey types are planted to favor Psychology
    (mean 5) over Religion & Spirituality (mean 2), mirroring the
    inclination seen in the real responses.
    """
    means = np.empty((len(ALL_TYPES), len(catalog)), dtype=np.float64)
    for ti, t in enumerate(ALL_TYPES):
        for gi, genre in enumerate(catalog.genres):
            u = zlib.crc32(f"{t.value}|{genre}".encode("utf-8")) / 2**32
            means[ti, gi] = 1.0 + 4.0 * u
    planted_pairs = {PSYCHOLOGY: 5.0, RELIGION_SPIRITUALITY: 2.0}
    for code in TOP_SURVEY_TYPES:
        ti = ALL_TYPES.index(parse_mbti(code))
        for genre, value in planted_pairs.items():
            if genre in catalog:
                means[ti, catalog.index(genre)] = value
    return means


@dataclass(frozen=True, eq=False)
class SynthConfig:
    """Everything that determines a synthetic dataset: seed, per-type counts
    and catalog.  Identical configs produce identical datasets.
    """

    seed: int
    frequencies: TypeFrequencyTable = field(default_factory=survey_frequency_table)
    catalog: GenreCatalog = field(default_factory=default_catalog)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.frequencies.total <= 0:
            raise Error("frequency table must have at least one respondent")


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Sample a dataset that honors ``config.frequencies`` exactly.

    Each rating is a normal draw with standard deviation 1 around its
    :func:`planted_means` entry, rounded and clipped into 0..6.  Types are
    generated in canonical alphabetical order with ids
    ``<code>-<nnn>``, so the output is fully determined by the config.
    """
    rng = np.random.default_rng(config.seed)
    means = planted_means(config.catalog)
    width = len(config.catalog)
    ids: list[str] = []
    codes: list[int] = []
    blocks: list[np.ndarray] = []
    for ti, t in enumerate(ALL_TYPES):
        count = config.frequencies.count(t)
        if count == 0:
            continue
        raw = rng.normal(loc=means[ti], scale=1.0, size=(count, width))
        blocks.append(np.clip(np.rint(raw), 0, 6).astype(np.int8))
        ids.extend(map(f"{t.value}-{{:03d}}".format, range(count)))
        codes.extend(repeat(ti, count))
    return Dataset.from_columns(config.catalog, ids, codes, np.concatenate(blocks))


def _dataset_header(catalog: GenreCatalog) -> list[str]:
    return ["respondent_id", "mbti", *catalog.genres]


_SINGLE_DIGIT = {str(v): v for v in range(RATING_MAX + 1)}
_RATING_CELLS = itemgetter(slice(2, None))


def _read_row(
    lineno: int, row: list[str], catalog: GenreCatalog, repeated: bool
) -> tuple[int, list[int]]:
    """Type code and ratings of one data row, or the error of its first bad
    cell; ``repeated`` tells whether an earlier row has the same id."""
    expected = len(catalog) + 2
    if len(row) != expected:
        raise SchemaMismatch(f"line {lineno}: expected {expected} columns, got {len(row)}")
    rid = row[0]
    if not RESPONDENT_ID_RE.match(rid):
        raise SchemaMismatch(
            f"line {lineno}: respondent id must match [A-Za-z0-9_-]+, got {rid!r}"
        )
    if repeated:
        raise DuplicateRespondent(f"line {lineno}: duplicate respondent id {rid!r}")
    mbti = parse_mbti(row[1])
    ratings = []
    for cell, genre in zip(row[2:], catalog.genres):
        if not (cell.isascii() and cell.isdigit()):
            raise InvalidRating(
                f"line {lineno}, column {genre!r}: ratings must be integers 0..6, got {cell!r}"
            )
        value = int(cell)
        if value > RATING_MAX:
            raise InvalidRating(f"line {lineno}, column {genre!r}: rating out of range: {value}")
        ratings.append(value)
    return TYPE_INDEX[mbti], ratings


def load_dataset(path: str | Path, catalog: GenreCatalog | None = None) -> Dataset:
    """Read and validate a survey CSV against ``catalog`` (default catalog
    when omitted).

    The header must match the catalog's genre columns exactly and in order;
    the first malformed row in the file raises with its line number.  Blank
    lines are skipped.
    """
    catalog = catalog if catalog is not None else default_catalog()
    expected = _dataset_header(catalog)
    body = list(csv.reader(io.StringIO(read_utf8(path), newline="")))
    header = body[0] if body else None
    if header != expected:
        raise SchemaMismatch(
            f"header does not match catalog ({len(expected)} columns expected); "
            f"got {header[:4] if header else header}..."
        )
    lines = np.flatnonzero(np.fromiter(map(len, body), np.intp, len(body)))[1:] + 1
    rows = list(filter(None, body))[1:]
    # Rows up to the first one of the wrong length are checked in bulk.
    misfits = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != len(expected))
    n = int(misfits[0]) if misfits.size else len(rows)
    ids = list(map(itemgetter(0), rows[:n]))
    types = map(str.lower, map(itemgetter(1), rows[:n]))
    codes = np.fromiter(map(TYPE_INDEX.get, types, repeat(-1)), np.int8, n)
    # -1 marks each cell that is not one of "0".."6", to be read by the row rule.
    cells = chain.from_iterable(map(_RATING_CELLS, rows[:n]))
    ratings = np.fromiter(map(_SINGLE_DIGIT.get, cells, repeat(-1)), np.int8, n * len(catalog))
    ratings = ratings.reshape(n, len(catalog))
    repeated = repeated_ids(ids)
    id_ok = np.fromiter(map(bool, map(RESPONDENT_ID_RE.match, ids)), bool, n)
    suspects = ~id_ok | repeated | (codes < 0) | (ratings < 0).any(axis=1)
    # The row rule raises the first error in file order, or reads a row whose
    # odd cells are valid (such as "06").
    for i in np.flatnonzero(suspects).tolist():
        codes[i], ratings[i] = _read_row(int(lines[i]), rows[i], catalog, bool(repeated[i]))
    if misfits.size:
        _read_row(int(lines[n]), rows[n], catalog, False)  # raises: wrong length
    return Dataset.from_columns(catalog, ids, codes, ratings)


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize a dataset to its canonical CSV text (LF line endings)."""
    ids = dataset.respondent_ids
    id_ok = np.fromiter(map(bool, map(RESPONDENT_ID_RE.match, ids)), bool, len(ids))
    if not id_ok.all():
        raise SchemaMismatch(f"respondent id not serializable: {ids[id_ok.argmin()]!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_dataset_header(dataset.catalog))
    types = map(attrgetter("value"), dataset.types)
    writer.writerows(zip(ids, types, *dataset.ratings.T.tolist()))
    return buf.getvalue()


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(dataset_to_csv(dataset))


def type_frequencies(dataset: Dataset) -> TypeFrequencyTable:
    """Observed respondent counts per type."""
    counts = np.bincount(dataset.type_codes, minlength=len(ALL_TYPES))
    return TypeFrequencyTable(dict(zip(ALL_TYPES, counts.tolist())))


@dataclass(frozen=True)
class SkewSummary:
    """Headline imbalance figures for a frequency table."""

    total: int
    introvert_fraction: float
    top_types: tuple[tuple[MbtiType, int], ...]


def skew_summary(table: TypeFrequencyTable) -> SkewSummary:
    """Introvert share and the first four types of
    :meth:`TypeFrequencyTable.ranked`.

    An empty table has no meaningful skew and raises :class:`EmptyTable`.
    """
    total = table.total
    if total == 0:
        raise EmptyTable("cannot summarize an empty frequency table")
    introverts = sum(c for t, c in table.items() if t.is_introvert)
    return SkewSummary(
        total=total,
        introvert_fraction=introverts / total,
        top_types=table.ranked()[:4],
    )
