"""Genre recommendations from per-type aggregate rating profiles.

A type's profile is built only from respondents who have experience of a
genre (rating 0 excluded), so "never tried it" does not read as dislike.
Rankings are deterministic: descending score with alphabetical tie-break.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .domain import (
    ALL_TYPES,
    ENJOYMENT_THRESHOLD,
    Dataset,
    GenreCatalog,
    MbtiType,
    SurveyRecord,
    coerce_type,
)
from .errors import EmptyInput, Error

DISLIKE_MAX = 2
DEFAULT_MIN_SUPPORT = 5
DEFAULT_TOP_N = 10

STRATEGY_TYPE_PROFILE = "type-profile"
STRATEGY_BLENDED = "blended"


@dataclass(frozen=True, eq=False)
class TypeProfile:
    """Aggregate taste of one type: per-genre mean rating, enjoyment share,
    and rater support, all aligned with the catalog's column order.

    ``mean[g]`` and ``enjoyment_share[g]`` are NaN when no respondent of the
    type has experience of genre ``g`` (``support[g] == 0``).
    """

    mbti: MbtiType
    mean: np.ndarray
    enjoyment_share: np.ndarray
    support: np.ndarray

    @property
    def n_genres(self) -> int:
        return self.mean.shape[0]


class ProfileSet(Mapping):
    """Profiles for all 16 types over one catalog, keyed by :class:`MbtiType`."""

    def __init__(self, catalog: GenreCatalog, profiles: Mapping[MbtiType, TypeProfile]):
        missing = [t.value for t in ALL_TYPES if t not in profiles]
        if missing:
            raise Error(f"profile set must cover all 16 types; missing {missing}")
        self.catalog = catalog
        self._profiles = dict(profiles)

    def __getitem__(self, mbti: MbtiType | str) -> TypeProfile:
        return self._profiles[coerce_type(mbti)]

    def __iter__(self) -> Iterator[MbtiType]:
        return iter(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)


def build_profiles(dataset: Dataset) -> ProfileSet:
    """Aggregate every type's ratings into a :class:`ProfileSet`.

    Types with no respondents get all-NaN means and zero support, which the
    recommenders treat as "no evidence" rather than an error; a dataset with
    no respondents at all raises :class:`EmptyInput`.
    """
    if len(dataset) == 0:
        raise EmptyInput("dataset has no respondents")
    ratings = dataset.ratings
    # Per-type column sums as products with the (types, rows) membership
    # matrix; they add small integers, so they are exact in float64.
    members = (dataset.type_codes == np.arange(len(ALL_TYPES))[:, None]).astype(np.float64)
    totals = members @ ratings.astype(np.float64)
    support = (members @ (ratings > 0)).astype(np.int64)
    enjoyed = members @ (ratings >= ENJOYMENT_THRESHOLD)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(support > 0, totals / support, np.nan)
        shares = np.where(support > 0, enjoyed / support, np.nan)
    profiles = {
        t: TypeProfile(mbti=t, mean=means[i], enjoyment_share=shares[i], support=support[i])
        for i, t in enumerate(ALL_TYPES)
    }
    return ProfileSet(dataset.catalog, profiles)


@dataclass(frozen=True)
class RecommendationItem:
    genre: str
    category: str
    score: float
    support: int
    low_support: bool


@dataclass(frozen=True)
class Recommendation:
    """A ranked genre list for one type, with the strategy that produced it."""

    mbti: MbtiType
    strategy: str
    items: tuple[RecommendationItem, ...]


def _rank(
    catalog: GenreCatalog,
    scores: np.ndarray,
    support: np.ndarray,
    candidates: Sequence[int],
    top_n: int,
    min_support: int,
) -> tuple[RecommendationItem, ...]:
    order = sorted(candidates, key=lambda g: (-scores[g], catalog.genres[g]))
    items = []
    for g in order[: max(0, top_n)]:
        genre = catalog.genres[g]
        items.append(
            RecommendationItem(
                genre=genre,
                category=catalog.category_of(genre),
                score=float(scores[g]),
                support=int(support[g]),
                low_support=int(support[g]) < min_support,
            )
        )
    return tuple(items)


def recommend_for_type(
    profiles: ProfileSet,
    mbti: MbtiType | str,
    category: str | None = None,
    top_n: int = DEFAULT_TOP_N,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> Recommendation:
    """Rank genres for a personality type by its profile's mean rating.

    Genres nobody of the type has tried score 0 and land at the bottom;
    genres with fewer than ``min_support`` raters are flagged, not dropped.
    ``category`` restricts candidates to one catalog category.
    """
    t = coerce_type(mbti)
    profile = profiles[t]
    catalog = profiles.catalog
    scores = np.nan_to_num(profile.mean, nan=0.0)
    if category is None:
        candidates: Sequence[int] = range(len(catalog))
    else:
        sl = catalog.category_slice(category)
        candidates = range(sl.start, sl.stop)
    return Recommendation(
        mbti=t,
        strategy=STRATEGY_TYPE_PROFILE,
        items=_rank(catalog, scores, profile.support, candidates, top_n, min_support),
    )


def recommend_for_user(
    profiles: ProfileSet,
    user: SurveyRecord,
    top_n: int = DEFAULT_TOP_N,
    blend_weight: float = 0.5,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> Recommendation:
    """Personalize the type ranking with one respondent's own ratings.

    For genres the user has tried, the score blends their rating with the
    type mean (``blend_weight`` toward the user); genres they rated 1 or 2
    are dropped outright.  Untried genres fall back to the type mean, so a
    user with no ratings at all gets exactly the type-profile ranking.
    """
    if not 0.0 <= blend_weight <= 1.0:
        raise Error(f"blend weight must be within 0..1, got {blend_weight}")
    profile = profiles[user.mbti]
    catalog = profiles.catalog
    if len(user.ratings) != len(catalog):
        raise Error(
            f"user has {len(user.ratings)} ratings, catalog has {len(catalog)} genres"
        )
    ratings = np.asarray(user.ratings, dtype=np.float64)
    if not np.any(ratings > 0):
        # Cold start: no personal evidence, so the result IS the type profile.
        return recommend_for_type(
            profiles, user.mbti, top_n=top_n, min_support=min_support
        )
    type_scores = np.nan_to_num(profile.mean, nan=0.0)
    blended = blend_weight * ratings + (1.0 - blend_weight) * profile.mean
    # Genres the user tried but the type never did: their own rating stands.
    blended = np.where(np.isnan(blended), ratings, blended)
    scores = np.where(ratings > 0, blended, type_scores)
    disliked = (ratings >= 1) & (ratings <= DISLIKE_MAX)
    candidates = [g for g in range(len(catalog)) if not disliked[g]]
    return Recommendation(
        mbti=user.mbti,
        strategy=STRATEGY_BLENDED,
        items=_rank(catalog, scores, profile.support, candidates, top_n, min_support),
    )


def recommendation_to_json(rec: Recommendation) -> str:
    doc = {
        "mbti": rec.mbti.value,
        "strategy": rec.strategy,
        "items": [
            {
                "genre": item.genre,
                "category": item.category,
                "score": item.score,
                "support": item.support,
                "low_support": item.low_support,
            }
            for item in rec.items
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def recommendation_to_text(rec: Recommendation) -> str:
    lines = [f"Top genres for {rec.mbti.value} ({rec.strategy}):"]
    for rank, item in enumerate(rec.items, start=1):
        flag = "  [low support]" if item.low_support else ""
        lines.append(
            f"{rank:3d}. {item.genre}  ({item.category})  "
            f"score={item.score:.3f}  raters={item.support}{flag}"
        )
    return "\n".join(lines) + "\n"
