"""Seeded survey inputs for the benchmark, made without the program's own
generator so that the program sees only the CSV files.

A survey has the reference 1020-respondent type frequencies times a scale
factor.  Each type gets its own mean rating per genre, so clusters line up
with types well above chance; the four most frequent types are planted to
favour Psychology over Religion & Spirituality.  Some cells are 0 ("no
experience").
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

# Respondents per type in the reference survey (n = 1020).
REFERENCE_COUNTS = {
    "intp": 221, "intj": 160, "infj": 134, "infp": 111,
    "istp": 81, "entp": 76, "enfp": 71, "istj": 65,
    "isfj": 26, "isfp": 22, "entj": 17, "estp": 12,
    "enfj": 11, "esfp": 5, "estj": 5, "esfj": 3,
}
TYPES = tuple(sorted(REFERENCE_COUNTS))
TOP_TYPES = ("intp", "intj", "infj", "infp")
PSYCHOLOGY = "Psychology"
RELIGION = "Religion & Spirituality"
ARRIVAL_BATCHES = 4

# One row of a CSV whose respondent id holds a byte that is not UTF-8.
NOT_UTF8_ROW = b"r\xff0001,intp,"


@dataclass(frozen=True)
class Survey:
    ids: tuple[str, ...]
    types: np.ndarray  # (n,) indices into TYPES
    ratings: np.ndarray  # (n, n_genres) int64 in 0..6

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def type_codes(self) -> list[str]:
        return [TYPES[t] for t in self.types]

    def concat(self, other: "Survey") -> "Survey":
        return Survey(
            self.ids + other.ids,
            np.concatenate([self.types, other.types]),
            np.concatenate([self.ratings, other.ratings]),
        )


class SurveyModel:
    """Per-type rating means and experience rates drawn from the seed."""

    def __init__(self, seed: int, genres: tuple[str, ...]) -> None:
        rng = np.random.default_rng([seed, 1])
        self.means = rng.uniform(1.0, 5.0, size=(len(TYPES), len(genres)))
        self.tried = rng.uniform(0.6, 0.95, size=(len(TYPES), len(genres)))
        psy, rel = genres.index(PSYCHOLOGY), genres.index(RELIGION)
        for code in TOP_TYPES:
            self.means[TYPES.index(code), [psy, rel]] = (5.0, 2.0)

    def sample(self, rng: np.random.Generator, types: np.ndarray, prefix: str) -> Survey:
        mean = self.means[types]
        ratings = np.clip(np.rint(rng.normal(mean, 1.0)), 1, 6).astype(np.int64)
        ratings[rng.random(mean.shape) >= self.tried[types]] = 0
        ids = tuple(f"{prefix}{i:06d}" for i in range(len(types)))
        return Survey(ids, types, ratings)


def frequencies(scale: int) -> dict[str, int]:
    return {code: count * scale for code, count in REFERENCE_COUNTS.items()}


def make_survey(model: SurveyModel, seed: int, scale: int) -> Survey:
    """The reference type counts times ``scale``, in a seeded row order."""
    rng = np.random.default_rng([seed, 2])
    counts = frequencies(scale)
    types = np.repeat(np.arange(len(TYPES)), [counts[t] for t in TYPES])
    rng.shuffle(types)
    return model.sample(rng, types, "r")


def make_arrivals(model: SurveyModel, seed: int, size: int) -> list[Survey]:
    """New respondents in ``ARRIVAL_BATCHES`` batches, types drawn in the
    reference proportions."""
    rng = np.random.default_rng([seed, 3])
    weights = np.array([REFERENCE_COUNTS[t] for t in TYPES], dtype=float)
    batches = []
    for b in range(ARRIVAL_BATCHES):
        types = rng.choice(len(TYPES), size=size, p=weights / weights.sum())
        batches.append(model.sample(rng, types, f"a{b}-"))
    return batches


def header(genres: tuple[str, ...]) -> bytes:
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(["respondent_id", "mbti", *genres])
    return head.getvalue().encode()


def to_csv(survey: Survey, genres: tuple[str, ...]) -> bytes:
    """The dataset wire format: header, then ``id,type,r1..rG`` with LF."""
    # Ratings are single digits, so each row is the digits interleaved with
    # commas; building it as bytes keeps generation out of the way of set-up.
    n, g = survey.ratings.shape
    cells = np.full((n, 2 * g), ord(","), dtype=np.uint8)
    cells[:, 0::2] = survey.ratings + ord("0")
    cells[:, -1] = ord("\n")
    lines = [f"{rid},{TYPES[t]},".encode() for rid, t in zip(survey.ids, survey.types)]
    body = b"".join(prefix + row.tobytes() for prefix, row in zip(lines, cells))
    return header(genres) + body


def not_utf8_csv(genres: tuple[str, ...]) -> bytes:
    """A valid header followed by one row whose id is not UTF-8."""
    return header(genres) + NOT_UTF8_ROW + b",".join([b"3"] * len(genres)) + b"\n"
