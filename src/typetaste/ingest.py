"""Survey dataset I/O and synthetic data generation.

The dataset wire format is a strict CSV: header ``respondent_id,mbti`` followed
by one column per catalog genre, UTF-8, integer cells 0..6.  Files are written
with LF line endings and read with LF or CRLF.  A file with no quote, no lone
CR, no NUL and no line past ``csv.field_size_limit()``, as every file written
here is, is read in bulk without the csv module; both routes give the same
dataset and the same first error.  Respondent ids must match
``[A-Za-z0-9_-]+`` in full, so no data row is ever quoted: rows are written
from one byte array of ratings, and synthetic ratings are drawn in one call
for all rows.
"""

from __future__ import annotations

import csv
import io
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .domain import (
    ALL_TYPES,
    ID_RULE,
    PSYCHOLOGY,
    RATING_MAX,
    RELIGION_SPIRITUALITY,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    bad_ids,
    check_int,
    check_seed,
    default_catalog,
    read_csv_rows,
    read_utf8,
    repeated_ids,
    type_code,
)
from .errors import Error

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
            u = zlib.crc32(f"{t}|{genre}".encode("utf-8")) / 2**32
            means[ti, gi] = 1.0 + 4.0 * u
    planted_pairs = {PSYCHOLOGY: 5.0, RELIGION_SPIRITUALITY: 2.0}
    for code in TOP_SURVEY_TYPES:
        ti = TYPE_INDEX[code]
        for genre, value in planted_pairs.items():
            if genre in catalog:
                means[ti, catalog.index(genre)] = value
    return means


@dataclass(frozen=True, eq=False)
class SynthConfig:
    """Everything that determines a synthetic dataset: seed, per-type counts
    and catalog.  Identical configs produce identical datasets.

    ``frequencies`` is given as a ``{type: count}`` mapping, with codes in
    any case and unnamed types counting 0, and is stored as a read-only
    int64 ``(16,)`` array in :data:`~typetaste.domain.ALL_TYPES` order.  That
    array is accepted back too, so ``dataclasses.replace`` works.
    """

    seed: int
    frequencies: Mapping[str, int] | np.ndarray = field(
        default_factory=SURVEY_TYPE_COUNTS.copy
    )
    catalog: GenreCatalog = field(default_factory=default_catalog)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_seed(self.seed))
        given = self.frequencies
        if isinstance(given, np.ndarray) and given.shape == (len(ALL_TYPES),):
            given = dict(zip(ALL_TYPES, given.tolist()))
        if not isinstance(given, Mapping):
            raise Error(f"frequencies must map types to counts, got {type(given).__name__}")
        counts: dict[str, int] = {}
        for key, value in given.items():
            t = ALL_TYPES[type_code(key)]
            v = check_int(value, f"count for {t}")
            if v < 0:
                raise Error(f"negative count for {t}: {v}")
            if t in counts:
                raise Error(f"repeated type in frequency table: {t}")
            counts[t] = v
        total = sum(counts.values())
        if total <= 0:
            raise Error("frequency table must have at least one respondent")
        # The normal draws are the largest array: one float64 per rating.
        width = len(self.catalog)
        if total * width * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
            raise Error(
                f"frequency table too large: {total} respondents x {width} genres "
                "exceed the largest array numpy can hold"
            )
        frequencies = np.array([counts.get(t, 0) for t in ALL_TYPES], dtype=np.int64)
        frequencies.flags.writeable = False
        object.__setattr__(self, "frequencies", frequencies)


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Sample a dataset that honors ``config.frequencies`` exactly.

    Each rating is a normal draw with standard deviation 1 around its
    :func:`planted_means` entry, rounded and clipped into 0..6.  All draws
    come from one ``standard_normal`` call over the whole (n, n_genres)
    matrix, rows grouped by type in canonical alphabetical order, with ids
    ``<code>-<nnn>``, so the output is fully determined by the config.
    """
    rng = np.random.default_rng(config.seed)
    counts = config.frequencies
    codes = np.repeat(np.arange(len(ALL_TYPES), dtype=np.int8), counts)
    # ``rng.normal(loc, 1.0)`` over a type's block is ``loc + 1.0 * z`` for
    # the same z in C order, so one draw for all rows gives the same values.
    # The means are added block by block in place: a means row per
    # respondent would double the largest array.
    ratings = rng.standard_normal((len(codes), len(config.catalog)))
    stops = np.cumsum(counts).tolist()
    for mean, start, stop in zip(planted_means(config.catalog), [0, *stops], stops):
        ratings[start:stop] += mean
    ratings = np.clip(np.rint(ratings, out=ratings), 0, RATING_MAX, out=ratings).astype(np.int8)
    ids = [f"{t}-{i:03d}" for t, count in zip(ALL_TYPES, counts.tolist()) for i in range(count)]
    return Dataset.from_columns(config.catalog, ids, codes, ratings)


def _dataset_header(catalog: GenreCatalog) -> list[str]:
    return ["respondent_id", "mbti", *catalog.genres]


def _plain_lines(text: str) -> list[str] | None:
    """The lines of ``text``, split at ``"\n"`` alone as the csv module
    splits them (not by ``str.splitlines``), if it reads each one as exactly
    ``line.split(",")``: no quote, no CR outside a CRLF ending, no NUL (which
    it refuses before Python 3.11) and no line past
    ``csv.field_size_limit()``.  None otherwise."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _read_row(
    lineno: int, row: list[str], catalog: GenreCatalog, repeated: bool
) -> tuple[int, list[int]]:
    """Type code and ratings of one data row, or the error of its first bad
    cell; ``repeated`` tells whether an earlier row has the same id."""
    expected = len(catalog) + 2
    if len(row) != expected:
        raise Error(f"line {lineno}: expected {expected} columns, got {len(row)}")
    rid = row[0]
    if bad_ids([rid])[0]:
        raise Error(f"line {lineno}: {ID_RULE}, got {rid!r}")
    if repeated:
        raise Error(f"line {lineno}: duplicate respondent id {rid!r}")
    try:
        code = type_code(row[1])
    except Error as exc:
        raise Error(f"line {lineno}, column 'mbti': {exc}") from None
    ratings = []
    for cell, genre in zip(row[2:], catalog.genres):
        if not (cell.isascii() and cell.isdigit()):
            raise Error(
                f"line {lineno}, column {genre!r}: ratings must be integers 0..6, got {cell!r}"
            )
        value = int(cell)
        if value > RATING_MAX:
            raise Error(f"line {lineno}, column {genre!r}: rating out of range: {value}")
        ratings.append(value)
    return code, ratings


def load_dataset(path: str | Path, catalog: GenreCatalog | None = None) -> Dataset:
    """Read and validate a survey CSV against ``catalog`` (default catalog
    when omitted).

    The header must match the catalog's genre columns exactly and in order;
    the first malformed row in the file raises with its line number.  Blank
    lines are skipped.

    A file with no quote, no CR outside a CRLF ending, no NUL and no line
    past ``csv.field_size_limit()``, such as any :func:`dataset_to_csv`
    output with LF or CRLF endings, is read without the csv module: the
    ratings of all lines are checked as one byte array, and only the lines
    that fail go to the row rule.  Any other file is parsed by the csv
    module, and text it cannot parse raises after the rows before it are
    checked.  Both routes give the same dataset and the same first error.
    """
    catalog = catalog if catalog is not None else default_catalog()
    expected = _dataset_header(catalog)
    text = read_utf8(path)
    rows, error = None, None
    lines = _plain_lines(text)
    if lines is None:
        rows, error = read_csv_rows(text, path)
        # A row passes the check below only if its cells are exactly the
        # comma-split of its line: one of the wrong length becomes ",", and
        # a blank row stays blank.
        lines = [",".join(row) if len(row) == len(expected) else "," if row else "" for row in rows]
    del text  # in bulk, the lines are the one copy of the file kept

    def cells(i: int) -> list[str]:
        """The cells of line ``i`` as the csv module reads them."""
        if rows is not None:
            return rows[i]
        return lines[i].split(",") if lines[i] else []

    header = cells(0) if lines else None
    if header != expected:
        if error is not None and not lines:
            raise Error(error)
        raise Error(
            f"header does not match catalog ({len(expected)} columns expected); "
            f"got {header[:4] if header else header}..."
        )
    numbers = [i for i, line in enumerate(lines) if line][1:]
    data = list(map(lines.__getitem__, numbers))
    n, width = len(data), 2 * len(catalog)
    heads = [line[:-width].split(",") for line in data]
    # A row fits when its head is "id,type" and its last 2 * n_genres
    # characters are "," and a digit 0..6, n_genres times.
    tails = "".join([line[-width:].rjust(width) for line in data]).encode("ascii", "replace")
    pairs = np.frombuffer(tails, np.uint8).reshape(n, len(catalog), 2)
    ratings = pairs[:, :, 1] - ord("0")
    fits = (pairs[:, :, 0] == ord(",")).all(axis=1) & (ratings <= RATING_MAX).all(axis=1)
    fits &= np.fromiter(map(len, heads), np.intp, n) == 2
    ids = list(map(itemgetter(0), heads))
    # The head of a row that does not fit need not start with the row's first
    # cell, which the duplicate check below needs.
    for i in np.flatnonzero(~fits).tolist():
        ids[i] = cells(numbers[i])[0]
    types = map(str.lower, map(itemgetter(-1), heads))
    codes = np.fromiter(map(TYPE_INDEX.get, types, repeat(-1)), np.int8, n)
    repeated = repeated_ids(ids)
    # The row rule raises the first error in file order, or reads a row whose
    # odd cells are valid (such as "06").
    for i in np.flatnonzero(~fits | bad_ids(ids) | repeated | (codes < 0)).tolist():
        line = numbers[i]
        codes[i], ratings[i] = _read_row(line + 1, cells(line), catalog, bool(repeated[i]))
    if error is not None:
        raise Error(error)
    return Dataset.from_columns(catalog, ids, codes, ratings)


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize a dataset to its canonical CSV text (LF line endings).

    A dataset's ids match :data:`~typetaste.domain.RESPONDENT_ID_RE` in
    full, so no data row needs quoting.  The header goes through the csv
    module, as genre names may need quoting; each row's ratings are the
    ``,d`` pairs of one byte array, so no rating becomes a Python object.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(_dataset_header(dataset.catalog))
    n, width = dataset.ratings.shape
    pairs = np.full((n, 2 * width), ord(","), np.uint8)
    pairs[:, 1::2] = dataset.ratings + ord("0")
    tails = map(bytes.decode, pairs.view(f"S{2 * width}").ravel().tolist())
    types = map(ALL_TYPES.__getitem__, dataset.type_codes.tolist())
    return "".join([buf.getvalue(), *map("{},{}{}\n".format, dataset.respondent_ids, types, tails)])


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(dataset_to_csv(dataset))
