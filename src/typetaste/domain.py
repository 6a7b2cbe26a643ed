"""Core vocabulary: personality codes, the 0..6 rating scale, the genre
catalog, and the survey record/dataset containers every other module builds on.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from numbers import Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import Error


# The 16 four-letter personality codes, lowercase and in alphabetical order.
ALL_TYPES: tuple[str, ...] = (
    "enfj", "enfp", "entj", "entp", "esfj", "esfp", "estj", "estp",
    "infj", "infp", "intj", "intp", "isfj", "isfp", "istj", "istp",
)

# The code that stands for each type in a dataset's ``type_codes`` column: its
# index in ALL_TYPES.
TYPE_INDEX: Mapping[str, int] = {t: i for i, t in enumerate(ALL_TYPES)}


def type_code(text: str) -> int:
    """The :data:`TYPE_INDEX` code of a four-letter personality code, read
    case-insensitively; any other value raises :class:`Error`."""
    code = TYPE_INDEX.get(text.lower()) if isinstance(text, str) else None
    if code is None:
        raise Error(f"not a valid personality code: {text!r}")
    return code


def type_codes_of(types: Iterable[str]) -> list[int]:
    """The :func:`type_code` of each personality code in ``types``; a
    non-iterable stands for one code, which :func:`type_code` refuses."""
    return [type_code(t) for t in (types if isinstance(types, Iterable) else [types])]


def check_type_codes(codes: np.ndarray, n: int) -> None:
    """Raise :class:`Error` unless ``codes`` is a 1-D array of ``n`` integer
    :data:`TYPE_INDEX` codes (not bools)."""
    if (
        codes.shape != (n,)
        or (codes.size and codes.dtype.kind not in "iu")
        or not np.isin(codes, range(len(ALL_TYPES))).all()
    ):
        raise Error(f"type codes must be {n} indices into ALL_TYPES")


MAX_SEED = 2**64 - 1


def check_int(value: object, what: str) -> int:
    """Return ``value`` as a plain int, or raise :class:`Error` naming
    ``what`` unless it is an integer; a ``bool`` is not one."""
    try:
        v = operator.index(value)
    except TypeError:
        v = None
    if v is None or isinstance(value, bool):
        raise Error(f"{what} must be an integer, got {type(value).__name__}")
    return v


def check_real(value: object, what: str) -> float:
    """Return ``value`` as a float, or raise :class:`Error` naming ``what``
    unless it is a real number; a ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise Error(f"{what} must be a real number, got {type(value).__name__}")
    return float(value)


def check_seed(seed: int) -> int:
    """Return ``seed`` as a plain int, or raise :class:`Error` unless it is
    an unsigned 64-bit integer; a ``bool`` is not one."""
    v = check_int(seed, "seed")
    if not 0 <= v <= MAX_SEED:
        raise Error(f"seed must be an unsigned 64-bit integer, got {seed}")
    return v


RATING_MIN = 0
RATING_MAX = 6

# Ratings of 4 and above count as enjoyment; 0 marks lack of exposure, not
# dislike, and must be excluded from preference averages.
ENJOYMENT_THRESHOLD = 4


def check_scale(ratings: np.ndarray) -> None:
    """Raise :class:`Error` unless the array holds integers (not bools) on the 0..6 scale."""
    if ratings.size and ratings.dtype.kind not in "iu":
        raise Error(f"ratings must be integers, got dtype {ratings.dtype}")
    outside = (ratings < RATING_MIN) | (ratings > RATING_MAX)
    if outside.any():
        raise Error(f"rating must be in {RATING_MIN}..{RATING_MAX}, got {ratings[outside][0]}")


# Respondent ids are filename- and URL-safe, so CSV never quotes them.  Always
# matched in full: with ``match``, ``$`` would accept an id ending in a newline.
RESPONDENT_ID_RE = re.compile(r"[A-Za-z0-9_-]+")
ID_RULE = f"respondent id must match {RESPONDENT_ID_RE.pattern}"


def bad_ids(ids: Sequence) -> np.ndarray:
    """Mask of the ids that are not strings matching :data:`RESPONDENT_ID_RE` in full."""
    # Non-empty strings all match when their concatenation does: one match.
    if {*map(type, ids)} <= {str} and "" not in ids and RESPONDENT_ID_RE.fullmatch("".join(ids)):
        return np.zeros(len(ids), bool)
    return np.array([not (isinstance(i, str) and RESPONDENT_ID_RE.fullmatch(i)) for i in ids], bool)


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array of any shape; anything that is not numbers
    raises :class:`Error`, whose message calls the value ``name``."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise Error(f"{name} must be an array of numbers, got {type(value).__name__}") from None


def integral_scale(X: np.ndarray) -> float | None:
    """``max|x|`` over the entries of the float array ``X`` when every entry
    is an integer (0 for an empty array), or ``None`` when one is not: a
    fraction, a NaN or an infinity.  Exact-arithmetic paths take it to check
    that their integer sums stay within their float type's significand."""
    lo, hi = float(X.min(initial=0.0)), float(X.max(initial=0.0))
    if not np.isfinite([lo, hi]).all() or not np.array_equal(X, np.rint(X)):
        return None
    return max(hi, -lo)


def data_matrix(data: np.ndarray) -> np.ndarray:
    """``data`` as a float64 matrix, samples in rows; anything else raises :class:`Error`."""
    X = float_array(data, "data")
    if X.ndim != 2:
        raise Error(f"data must be 2-D, got shape {X.shape}")
    return X


def count_table(table: np.ndarray) -> np.ndarray:
    """``table`` as an array, when it is a 2-D array of non-negative integer
    counts, such as a contingency or pair rating table; anything else raises
    :class:`Error`."""
    try:
        counts = np.asarray(table)
    except (TypeError, ValueError):  # ragged rows
        counts = None
    if counts is None or counts.dtype.kind not in "iu" or counts.ndim != 2 or (counts < 0).any():
        raise Error("a count table must be a 2-D array of non-negative integers")
    return counts


# The five survey categories, in canonical column order, with their sizes.
CATEGORY_SIZES: Mapping[str, int] = {
    "fiction-books": 30,
    "nonfiction-books": 34,
    "music": 25,
    "movies": 21,
    "video-games": 11,
}

CATEGORY_ORDER: tuple[str, ...] = tuple(CATEGORY_SIZES)

# The column layout of every catalog and rating matrix, fixed by the survey
# design: each column's category, and each category's column slice.
COLUMN_CATEGORIES: tuple[str, ...] = tuple(
    name for name, size in CATEGORY_SIZES.items() for _ in range(size)
)
CATEGORY_SLICES: Mapping[str, slice] = {
    name: slice(COLUMN_CATEGORIES.index(name), COLUMN_CATEGORIES.index(name) + size)
    for name, size in CATEGORY_SIZES.items()
}
N_GENRES = len(COLUMN_CATEGORIES)

PSYCHOLOGY = "Psychology"
RELIGION_SPIRITUALITY = "Religion & Spirituality"


@dataclass(frozen=True)
class GenreCatalog:
    """The survey's genre names in column order.

    ``genres`` holds :data:`N_GENRES` unique, non-empty strings, given in
    any iterable and stored as a tuple.  Column ``i`` belongs to category
    ``COLUMN_CATEGORIES[i]``; the layout is the survey design's, so only
    the names are free.  Column order of every rating matrix is this order.
    """

    genres: tuple[str, ...]

    def __post_init__(self) -> None:
        genres = tuple(self.genres) if isinstance(self.genres, Iterable) else ()
        if len(genres) != N_GENRES:
            raise Error(f"a catalog must have {N_GENRES} genres, got {len(genres)}")
        others = [g for g in genres if not isinstance(g, str)]
        if others:
            raise Error(f"genre names must be strings, got {others[0]!r}")
        if len(set(genres)) != len(genres):
            seen: set[str] = set()
            dupes = sorted({g for g in genres if g in seen or seen.add(g)})
            raise Error(f"duplicate genre names: {dupes}")
        if not all(genres):
            raise Error("genre names must be non-empty")
        object.__setattr__(self, "genres", genres)

    @cached_property
    def name_rank(self) -> np.ndarray:
        """Each column's position in ``sorted(genres)``, read-only: the
        alphabetical tie-break of every ranking as one sort key.  Python's
        string order is used because numpy's ``<U`` arrays drop trailing
        NULs, so ``"a\\x00"`` and ``"a"`` would tie there."""
        order = sorted(range(len(self.genres)), key=self.genres.__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        rank.setflags(write=False)
        return rank

    @cached_property
    def _index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.genres)}

    def __len__(self) -> int:
        return len(self.genres)

    def __contains__(self, genre: object) -> bool:
        return isinstance(genre, str) and genre in self._index

    @property
    def category_names(self) -> tuple[str, ...]:
        return CATEGORY_ORDER

    def index(self, genre: str) -> int:
        """Column index of ``genre``; a name not in the catalog raises
        :class:`Error`."""
        if genre not in self:
            raise Error(f"genre not in catalog: {genre!r}")
        return self._index[genre]

    def category_slice(self, category: str) -> slice:
        """Column slice covering one category; a name that is not one of
        the five categories raises :class:`Error`."""
        if not isinstance(category, str) or category not in CATEGORY_SLICES:
            raise Error(f"unknown category: {category!r}")
        return CATEGORY_SLICES[category]

    def genres_in(self, category: str) -> tuple[str, ...]:
        return self.genres[self.category_slice(category)]


def default_catalog() -> GenreCatalog:
    """Catalog with stable placeholder genre names.

    The two nonfiction genres that are analysed individually (Psychology and
    Religion & Spirituality) carry their real names; the remaining columns
    get deterministic ``<category>_<nn>`` placeholders.
    """
    prefixes = ("fiction", "nonfiction", "music", "movies", "games")
    sizes = CATEGORY_SIZES.values()
    genres = [f"{prefix}_{i:02d}" for prefix, size in zip(prefixes, sizes) for i in range(size)]
    first = CATEGORY_SLICES["nonfiction-books"].start
    genres[first:first + 2] = PSYCHOLOGY, RELIGION_SPIRITUALITY
    return GenreCatalog(genres)


CATALOG_HEADER = ("category", "genre")


def save_catalog(catalog: GenreCatalog, path: str | Path) -> None:
    """Write a catalog as ``category,genre`` rows, one per genre, in order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CATALOG_HEADER)
        writer.writerows(zip(COLUMN_CATEGORIES, catalog.genres))


def read_utf8(path: str | Path) -> str:
    """The text of the file at ``path``, read once and decoded as UTF-8.

    Bytes that are not UTF-8 raise :class:`Error` naming the file, the
    first such byte and its offset in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Error(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def read_csv_rows(text: str, name: str | Path) -> tuple[list[list[str]], str | None]:
    """The rows the csv module reads from ``text``, and the message of the
    error that stopped it, if any (None when it reads the whole text).

    Text the csv module cannot parse, such as a field longer than
    ``csv.field_size_limit()``, stops it; the message names ``name`` and the
    reader's line, and the rows are those read before that line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        return rows, f"{name}: line {reader.line_num}: {exc}"
    return rows, None


def load_catalog(path: str | Path) -> GenreCatalog:
    """Read a ``category,genre`` CSV written by :func:`save_catalog`.

    Each line's category must be the one :data:`COLUMN_CATEGORIES` puts at
    its position; the first line that breaks this raises with its number.
    Text the csv module cannot parse raises after the rows before it are
    checked, so the first error in the file is the one reported.
    """
    rows, error = read_csv_rows(read_utf8(path), path)
    if error is not None and not rows:
        raise Error(error)
    header = rows[0] if rows else None
    if header != list(CATALOG_HEADER):
        raise Error(f"catalog header must be {','.join(CATALOG_HEADER)!r}, got {header}")
    genres: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise Error(f"catalog line {lineno}: expected 2 columns")
        name, genre = row
        if len(genres) == N_GENRES:
            raise Error(f"catalog line {lineno}: the layout has only {N_GENRES} genres")
        expected = COLUMN_CATEGORIES[len(genres)]
        if name != expected:
            raise Error(f"catalog line {lineno}: expected category {expected!r}, got {name!r}")
        genres.append(genre)
    if error is not None:
        raise Error(error)
    return GenreCatalog(genres)


@dataclass(frozen=True)
class SurveyRecord:
    """One respondent: id, personality type, and one rating per genre (a tuple of ints)."""

    respondent_id: str
    mbti: str
    ratings: tuple[int, ...]

    def __post_init__(self) -> None:
        if bad_ids([self.respondent_id])[0]:
            raise Error(f"{ID_RULE}, got {self.respondent_id!r}")
        object.__setattr__(self, "mbti", ALL_TYPES[type_code(self.mbti)])
        ratings = np.asarray(self.ratings)
        if ratings.ndim != 1:
            raise Error(f"ratings must be 1-D, got shape {ratings.shape}")
        check_scale(ratings)
        object.__setattr__(self, "ratings", tuple(ratings.tolist()))

    @classmethod
    def _row(cls, respondent_id: str, mbti: str, ratings: tuple[int, ...]) -> "SurveyRecord":
        """A record of one dataset row, whose values the dataset has already
        validated, so they are not checked again."""
        record = object.__new__(cls)
        record.__dict__.update(respondent_id=respondent_id, mbti=mbti, ratings=ratings)
        return record


def repeated_ids(ids: Sequence[str]) -> np.ndarray:
    """Mask of the rows whose id already appeared in an earlier row."""
    # Built from the last row back, so each id keeps its first row.
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, ids), np.intp, len(ids)) != np.arange(len(ids))


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """An immutable survey table: a catalog plus three row-aligned columns.

    ``respondent_ids`` is a tuple of unique :data:`RESPONDENT_ID_RE` ids, ``type_codes`` an
    int8 array of :data:`TYPE_INDEX` codes, and ``ratings`` a read-only int8
    (n_respondents, n_genres) matrix of 0..6 ratings in catalog column order.
    :meth:`from_columns` validates and copies the columns;
    ``Dataset(catalog, records)`` builds them from :class:`SurveyRecord` rows.
    Equal datasets have equal catalogs and columns.  Matrix accessors return
    fresh arrays, so callers can mutate them freely.
    """

    catalog: GenreCatalog
    respondent_ids: tuple[str, ...]
    type_codes: np.ndarray
    ratings: np.ndarray

    def __init__(self, catalog: GenreCatalog, records: Iterable[SurveyRecord]) -> None:
        try:
            records = tuple(records)
            rows = list(map(operator.attrgetter("ratings"), records))
        except (TypeError, AttributeError):
            raise Error("records must be an iterable of SurveyRecord") from None
        misfits = np.fromiter(map(len, rows), np.intp, len(rows)) != len(catalog)
        if misfits.any():
            rec = records[misfits.argmax()]
            raise Error(
                f"record {rec.respondent_id!r} has {len(rec.ratings)} ratings, "
                f"catalog has {len(catalog)} genres"
            )
        ids = map(operator.attrgetter("respondent_id"), records)
        types = map(TYPE_INDEX.__getitem__, map(operator.attrgetter("mbti"), records))
        codes = np.fromiter(types, np.int8, len(rows))
        ratings = np.fromiter(chain.from_iterable(rows), np.int8, len(rows) * len(catalog))
        self._set_columns(catalog, ids, codes, ratings.reshape(len(rows), len(catalog)))
        self.__dict__["records"] = records

    @classmethod
    def from_columns(cls, catalog: GenreCatalog, respondent_ids, type_codes, ratings) -> Dataset:
        """A dataset of the given columns (an id iterable, type codes and an
        (n, n_genres) rating array), validated and copied."""
        dataset = cls.__new__(cls)
        dataset._set_columns(catalog, respondent_ids, type_codes, ratings)
        return dataset

    def _set_columns(self, catalog, respondent_ids, type_codes, ratings) -> None:
        # A non-iterable stands for one id, which the id rule refuses.
        ids = tuple(respondent_ids) if isinstance(respondent_ids, Iterable) else (respondent_ids,)
        codes = np.asarray(type_codes)
        matrix = np.asarray(ratings)
        bad = bad_ids(ids)
        if bad.any():
            raise Error(f"{ID_RULE}, got {ids[bad.argmax()]!r}")
        check_type_codes(codes, len(ids))
        if matrix.shape != (len(ids), len(catalog)):
            raise Error(
                f"rating matrix has shape {matrix.shape}, expected ({len(ids)}, {len(catalog)})"
            )
        check_scale(matrix)
        repeats = repeated_ids(ids)
        if repeats.any():
            raise Error(f"duplicate respondent id: {ids[repeats.argmax()]!r}")
        codes = codes.astype(np.int8)
        matrix = matrix.astype(np.int8)
        codes.flags.writeable = matrix.flags.writeable = False
        self.__dict__.update(catalog=catalog, respondent_ids=ids, type_codes=codes, ratings=matrix)

    def __len__(self) -> int:
        return len(self.respondent_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.catalog == other.catalog
            and self.respondent_ids == other.respondent_ids
            and np.array_equal(self.type_codes, other.type_codes)
            and np.array_equal(self.ratings, other.ratings)
        )

    @cached_property
    def records(self) -> tuple[SurveyRecord, ...]:
        """One record per row, built from the columns on first use."""
        types = map(ALL_TYPES.__getitem__, self.type_codes.tolist())
        rows = map(tuple, self.ratings.tolist())
        return tuple(map(SurveyRecord._row, self.respondent_ids, types, rows))

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return dict(zip(self.respondent_ids, range(len(self))))

    def record(self, respondent_id: str) -> SurveyRecord:
        row = self._row_of.get(respondent_id) if isinstance(respondent_id, str) else None
        if row is None:
            raise Error(f"no such respondent: {respondent_id!r}")
        return SurveyRecord._row(
            respondent_id, ALL_TYPES[self.type_codes[row]], tuple(self.ratings[row].tolist())
        )

    def rating_matrix(self, dtype=np.int64) -> np.ndarray:
        """Full (n_respondents, n_genres) rating matrix as a new array."""
        try:
            return self.ratings.astype(dtype)
        except (TypeError, ValueError):
            raise Error(f"dtype must be a numpy dtype, got {type(dtype).__name__}") from None

    def feature_matrix(self, category: str | None = None) -> np.ndarray:
        """Float rating matrix, optionally restricted to one category's columns."""
        m = self.ratings
        if category is not None:
            m = m[:, self.catalog.category_slice(category)]
        return m.astype(np.float64)

    def restrict_types(self, types: Iterable[str]) -> "Dataset":
        """Subset with only the given personality types, preserving row order."""
        keep = np.isin(self.type_codes, type_codes_of(types))
        ids = compress(self.respondent_ids, keep.tolist())
        return Dataset.from_columns(self.catalog, ids, self.type_codes[keep], self.ratings[keep])
