"""Genre recommendations from per-type aggregate rating profiles.

:func:`build_profiles` aggregates a survey into one :class:`ProfileSet` of
(16, n_genres) arrays, one row per type in ``ALL_TYPES`` order.  A type's
profile is built only from respondents who have experience of a genre
(rating 0 excluded), so "never tried it" does not read as dislike.
Rankings are deterministic: descending score with alphabetical tie-break.
Each type's full ranking is computed once per :func:`build_profiles`, so a
type query filters and slices a stored tuple; a user query ranks the
genres it may offer from its own blended scores.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .domain import (
    ALL_TYPES,
    COLUMN_CATEGORIES,
    ENJOYMENT_THRESHOLD,
    TYPE_INDEX,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    check_int,
    check_real,
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


@dataclass(frozen=True, eq=False)
class ProfileSet:
    """Aggregate taste of all 16 types over one catalog: per-genre mean
    rating, enjoyment share and rater support, each a (16, n_genres) array
    with rows in ``ALL_TYPES`` order and columns in catalog order.

    ``mean`` and ``enjoyment_share`` are NaN where no respondent of the type
    has experience of the genre (``support == 0``).  ``rankings`` holds each
    type's full type-profile ranking, best first, in ``ALL_TYPES`` order.
    """

    catalog: GenreCatalog
    mean: np.ndarray
    enjoyment_share: np.ndarray
    support: np.ndarray
    rankings: tuple[tuple[RecommendationItem, ...], ...]


def _items(
    catalog: GenreCatalog,
    scores: Sequence[float],
    support: Sequence[int],
    order: Sequence[int],
) -> tuple[RecommendationItem, ...]:
    genres, categories = catalog.genres, COLUMN_CATEGORIES
    return tuple(
        RecommendationItem(
            genre=genres[g],
            category=categories[g],
            score=scores[g],
            support=support[g],
            low_support=support[g] < MIN_SUPPORT,
        )
        for g in order
    )


def build_profiles(dataset: Dataset) -> ProfileSet:
    """Aggregate every type's ratings into a :class:`ProfileSet`, with every
    type's genres ranked once.

    Types with no respondents get all-NaN means and zero support, which the
    recommenders treat as "no evidence" rather than an error.  A dataset
    with no respondents at all raises :class:`Error`.
    """
    if len(dataset) == 0:
        raise Error("dataset has no respondents")
    catalog, ratings = dataset.catalog, dataset.ratings
    # Per-type column sums as products with the (types, rows) membership
    # matrix; they add small integers, so they are exact in float64.
    members = (dataset.type_codes == np.arange(len(ALL_TYPES))[:, None]).astype(np.float64)
    totals = members @ ratings.astype(np.float64)
    support = (members @ (ratings > 0)).astype(np.int64)
    enjoyed = members @ (ratings >= ENJOYMENT_THRESHOLD)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(support > 0, totals / support, np.nan)
        shares = np.where(support > 0, enjoyed / support, np.nan)
    # Genres nobody of the type has tried score 0.
    scores = np.nan_to_num(means, nan=0.0)
    # Rows by descending score, then by genre name.
    orders = np.lexsort((np.broadcast_to(catalog.name_rank, scores.shape), -scores), axis=-1)
    rankings = tuple(
        _items(catalog, *row)
        for row in zip(scores.tolist(), support.tolist(), orders.tolist())
    )
    return ProfileSet(catalog, means, shares, support, rankings)


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
    ``top_n`` must be an integer; a negative one gives no items.
    """
    row = type_code(mbti)
    items = profiles.rankings[row]
    if category is not None:
        profiles.catalog.category_slice(category)  # rejects an unknown name
        items = tuple(item for item in items if item.category == category)
    top_n = check_int(top_n, "top_n")
    return Recommendation(
        mbti=ALL_TYPES[row],
        strategy=STRATEGY_TYPE_PROFILE,
        items=items[: max(0, top_n)],
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
    ``top_n`` must be an integer; a negative one gives no items.
    """
    weight = check_real(blend_weight, "blend weight")
    if not 0.0 <= weight <= 1.0:
        raise Error(f"blend weight must be within 0..1, got {blend_weight}")
    catalog = profiles.catalog
    if len(user.ratings) != len(catalog):
        raise Error(f"user has {len(user.ratings)} ratings, catalog has {len(catalog)} genres")
    top_n = check_int(top_n, "top_n")
    row = TYPE_INDEX[user.mbti]
    mean = profiles.mean[row]
    ratings = np.asarray(user.ratings, dtype=np.float64)
    tried = ratings > 0
    scores = np.where(tried, weight * ratings + (1.0 - weight) * mean, mean)
    # Where the type has no rater the user's own rating stands, 0 if untried.
    scores = np.where(np.isnan(scores), ratings, scores)
    offered = np.flatnonzero(~((ratings >= 1) & (ratings <= DISLIKE_MAX)))
    order = offered[np.lexsort((catalog.name_rank[offered], -scores[offered]))]
    return Recommendation(
        mbti=user.mbti,
        strategy=STRATEGY_BLENDED if tried.any() else STRATEGY_TYPE_PROFILE,
        items=_items(
            catalog,
            scores.tolist(),
            profiles.support[row].tolist(),
            order[: max(0, top_n)].tolist(),
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
