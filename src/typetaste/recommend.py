"""Genre recommendations from per-type aggregate rating profiles.

:func:`build_profiles` aggregates a survey into one :class:`ProfileSet` of
(16, n_genres) arrays, one row per type in ``ALL_TYPES`` order.  A type's
profile is built only from respondents who have experience of a genre
(rating 0 excluded), so "never tried it" does not read as dislike.  Both
recommenders rank one row of it.  Rankings are deterministic: descending
score with alphabetical tie-break.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .domain import (
    ALL_TYPES,
    ENJOYMENT_THRESHOLD,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    type_code,
)
from .errors import Error

DISLIKE_MAX = 2
# Genres with fewer raters than this are flagged ``low_support``, not dropped.
MIN_SUPPORT = 5
DEFAULT_TOP_N = 10
DEFAULT_BLEND = 0.5

STRATEGY_TYPE_PROFILE = "type-profile"
STRATEGY_BLENDED = "blended"


@dataclass(frozen=True, eq=False)
class ProfileSet:
    """Aggregate taste of all 16 types over one catalog: per-genre mean
    rating, enjoyment share and rater support, each a (16, n_genres) array
    with rows in ``ALL_TYPES`` order and columns in catalog order.

    ``mean`` and ``enjoyment_share`` are NaN where no respondent of the type
    has experience of the genre (``support == 0``).
    """

    catalog: GenreCatalog
    mean: np.ndarray
    enjoyment_share: np.ndarray
    support: np.ndarray


def build_profiles(dataset: Dataset) -> ProfileSet:
    """Aggregate every type's ratings into a :class:`ProfileSet`.

    Types with no respondents get all-NaN means and zero support, which the
    recommenders treat as "no evidence" rather than an error.  A dataset
    with no respondents at all raises :class:`Error`.
    """
    if len(dataset) == 0:
        raise Error("dataset has no respondents")
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
    return ProfileSet(dataset.catalog, means, shares, support)


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

    mbti: str
    strategy: str
    items: tuple[RecommendationItem, ...]


def _rank(
    catalog: GenreCatalog,
    scores: np.ndarray,
    support: np.ndarray,
    candidates: Sequence[int],
    top_n: int,
) -> tuple[RecommendationItem, ...]:
    genres, categories = catalog.genres, catalog.column_categories
    # Python floats and ints sort and convert faster than numpy scalars.
    scores, support = scores.tolist(), support.tolist()
    order = sorted(candidates, key=lambda g: (-scores[g], genres[g]))
    return tuple(
        RecommendationItem(
            genre=genres[g],
            category=categories[g],
            score=scores[g],
            support=support[g],
            low_support=support[g] < MIN_SUPPORT,
        )
        for g in order[: max(0, top_n)]
    )


def recommend_for_type(
    profiles: ProfileSet,
    mbti: str,
    category: str | None = None,
    top_n: int = DEFAULT_TOP_N,
) -> Recommendation:
    """Rank genres for a personality type by its profile's mean rating.

    Genres nobody of the type has tried score 0 and land at the bottom;
    genres with fewer than :data:`MIN_SUPPORT` raters are flagged, not
    dropped.  ``category`` restricts candidates to one catalog category.
    """
    row = type_code(mbti)
    catalog = profiles.catalog
    candidates = range(len(catalog))
    if category is not None:
        candidates = candidates[catalog.category_slice(category)]
    scores = np.nan_to_num(profiles.mean[row], nan=0.0)
    return Recommendation(
        mbti=ALL_TYPES[row],
        strategy=STRATEGY_TYPE_PROFILE,
        items=_rank(catalog, scores, profiles.support[row], candidates, top_n),
    )


def recommend_for_user(
    profiles: ProfileSet,
    user: SurveyRecord,
    top_n: int = DEFAULT_TOP_N,
    blend_weight: float = DEFAULT_BLEND,
) -> Recommendation:
    """Personalize the type ranking with one respondent's own ratings.

    For genres the user has tried, the score blends their rating with the
    type mean (``blend_weight`` toward the user); genres they rated 1 or 2
    are dropped outright.  Untried genres fall back to the type mean, so a
    user with no ratings at all gets exactly the type-profile ranking.
    """
    if not 0.0 <= blend_weight <= 1.0:
        raise Error(f"blend weight must be within 0..1, got {blend_weight}")
    catalog = profiles.catalog
    if len(user.ratings) != len(catalog):
        raise Error(f"user has {len(user.ratings)} ratings, catalog has {len(catalog)} genres")
    row = TYPE_INDEX[user.mbti]
    mean = profiles.mean[row]
    ratings = np.asarray(user.ratings, dtype=np.float64)
    tried = ratings > 0
    blended = blend_weight * ratings + (1.0 - blend_weight) * mean
    # Genres the user tried but the type never did: their own rating stands.
    blended = np.where(np.isnan(blended), ratings, blended)
    scores = np.where(tried, blended, np.nan_to_num(mean, nan=0.0))
    disliked = (ratings >= 1) & (ratings <= DISLIKE_MAX)
    return Recommendation(
        mbti=user.mbti,
        strategy=STRATEGY_BLENDED if tried.any() else STRATEGY_TYPE_PROFILE,
        items=_rank(
            catalog, scores, profiles.support[row], np.flatnonzero(~disliked).tolist(), top_n
        ),
    )


def recommendation_to_json(rec: Recommendation) -> str:
    doc = {
        "mbti": rec.mbti,
        "strategy": rec.strategy,
        "items": [asdict(item) for item in rec.items],
    }
    return json.dumps(doc, indent=2) + "\n"


def recommendation_to_text(rec: Recommendation) -> str:
    lines = [f"Top genres for {rec.mbti} ({rec.strategy}):"]
    for rank, item in enumerate(rec.items, start=1):
        flag = "  [low support]" if item.low_support else ""
        lines.append(
            f"{rank:3d}. {item.genre}  ({item.category})  "
            f"score={item.score:.3f}  raters={item.support}{flag}"
        )
    return "\n".join(lines) + "\n"
