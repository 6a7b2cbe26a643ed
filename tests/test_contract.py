"""The error contract at run time: every public callable, given a hostile
value in one argument and valid values in the rest, returns or raises
``typetaste.errors.Error``.  ``test_asserts.py`` is the static partner: it
checks that the package raises no other class.

Left out of the table, each for a stated reason:

- calls that start a fit or a synth (``kmeans.fit``, ``run_method_comparison``,
  ``generate_synthetic``, the CLI, and ``lloyd`` apart from its starting
  centroids): their parameters are swept through the configs they are built
  from, so no fit is sized by a hostile value;
- file paths, which go to ``open``, where an int is a file descriptor;
- arguments that must be one of the package's own objects, which the
  ``errors`` module docstring places outside the contract.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from typetaste.analysis import inclination, pair_rating_table, scatter_to_csv
from typetaste.domain import (
    PSYCHOLOGY,
    RELIGION_SPIRITUALITY,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    check_int,
    check_real,
    check_seed,
    type_code,
)
from typetaste.errors import Error
from typetaste.ingest import SynthConfig
from typetaste.kmeans import KmeansConfig, init_kmeanspp, init_random, lloyd
from typetaste.metrics import contingency, silhouette_samples
from typetaste.pca import fit_pca, project
from typetaste.recommend import build_profiles, recommend_for_type, recommend_for_user

HOSTILE = {
    "None": None,
    "str": "x",
    "list": ["x", 1],
    "float": 2.5,
    "bool": True,
    "nan": math.nan,
    "negative": -1,
    "huge": 10**30,
    "dict": {"x": 1},
    "2-D": np.zeros((2, 2)),
}

X = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0], [5.0, 6.0, 5.0]])
LABELS = [0, 0, 1, 1]


KMEANS_FIELDS = ("k", "init", "max_iters", "tol", "seed", "restarts")

# One entry per (callable, argument): a function of the valid values in
# ``env`` and the hostile value ``v``.
CALLS = {
    "type_code": lambda env, v: type_code(v),
    "check_int": lambda env, v: check_int(v, "n"),
    "check_real": lambda env, v: check_real(v, "x"),
    "check_seed": lambda env, v: check_seed(v),
    "GenreCatalog": lambda env, v: GenreCatalog(v),
    "GenreCatalog.index": lambda env, v: env.catalog.index(v),
    "GenreCatalog.__contains__": lambda env, v: v in env.catalog,
    "GenreCatalog.category_slice": lambda env, v: env.catalog.category_slice(v),
    "GenreCatalog.genres_in": lambda env, v: env.catalog.genres_in(v),
    "SurveyRecord.respondent_id": lambda env, v: SurveyRecord(v, "intp", env.row),
    "SurveyRecord.mbti": lambda env, v: SurveyRecord("a", v, env.row),
    "SurveyRecord.ratings": lambda env, v: SurveyRecord("a", "intp", v),
    "Dataset.records": lambda env, v: Dataset(env.catalog, v),
    "Dataset.from_columns.respondent_ids": lambda env, v: Dataset.from_columns(
        env.catalog, v, [0, 1], env.matrix
    ),
    "Dataset.from_columns.type_codes": lambda env, v: Dataset.from_columns(
        env.catalog, ["a", "b"], v, env.matrix
    ),
    "Dataset.from_columns.ratings": lambda env, v: Dataset.from_columns(
        env.catalog, ["a", "b"], [0, 1], v
    ),
    "Dataset.record": lambda env, v: env.dataset.record(v),
    "Dataset.rating_matrix": lambda env, v: env.dataset.rating_matrix(v),
    "Dataset.feature_matrix": lambda env, v: env.dataset.feature_matrix(v),
    "Dataset.restrict_types": lambda env, v: env.dataset.restrict_types(v),
    "SynthConfig.seed": lambda env, v: SynthConfig(seed=v),
    "SynthConfig.frequencies": lambda env, v: SynthConfig(seed=0, frequencies=v),
    **{
        f"KmeansConfig.{name}": lambda env, v, name=name: KmeansConfig(**{"k": 2, name: v})
        for name in KMEANS_FIELDS
    },
    "init_kmeanspp.data": lambda env, v: init_kmeanspp(v, 2, 0),
    "init_kmeanspp.k": lambda env, v: init_kmeanspp(X, v, 0),
    "init_kmeanspp.seed": lambda env, v: init_kmeanspp(X, 2, v),
    "init_random.data": lambda env, v: init_random(v, 2, 0),
    "init_random.k": lambda env, v: init_random(X, v, 0),
    "init_random.seed": lambda env, v: init_random(X, 2, v),
    "lloyd.init_centroids": lambda env, v: lloyd(X, v, KmeansConfig(k=2)),
    "fit_pca.data": lambda env, v: fit_pca(v, 2),
    "fit_pca.n_components": lambda env, v: fit_pca(X, v),
    "project.data": lambda env, v: project(env.model, v),
    "contingency.labels_true": lambda env, v: contingency(v, [0, 1]),
    "contingency.labels_pred": lambda env, v: contingency([0, 1], v),
    "silhouette_samples.data": lambda env, v: silhouette_samples(v, LABELS),
    "silhouette_samples.assignments": lambda env, v: silhouette_samples(X, v),
    "recommend_for_type.mbti": lambda env, v: recommend_for_type(env.profiles, v),
    "recommend_for_type.category": lambda env, v: recommend_for_type(
        env.profiles, "intp", category=v
    ),
    "recommend_for_type.top_n": lambda env, v: recommend_for_type(env.profiles, "intp", top_n=v),
    "recommend_for_user.top_n": lambda env, v: recommend_for_user(env.profiles, env.user, top_n=v),
    "recommend_for_user.blend_weight": lambda env, v: recommend_for_user(
        env.profiles, env.user, blend_weight=v
    ),
    "pair_rating_table.mbti": lambda env, v: pair_rating_table(
        env.dataset, v, PSYCHOLOGY, RELIGION_SPIRITUALITY
    ),
    "pair_rating_table.genre_a": lambda env, v: pair_rating_table(
        env.dataset, "intp", v, RELIGION_SPIRITUALITY
    ),
    "pair_rating_table.genre_b": lambda env, v: pair_rating_table(
        env.dataset, "intp", PSYCHOLOGY, v
    ),
    "inclination.mbti": lambda env, v: inclination(
        env.profiles, v, PSYCHOLOGY, RELIGION_SPIRITUALITY
    ),
    "inclination.genre_a": lambda env, v: inclination(
        env.profiles, "intp", v, RELIGION_SPIRITUALITY
    ),
    "inclination.genre_b": lambda env, v: inclination(env.profiles, "intp", PSYCHOLOGY, v),
    "scatter_to_csv.coords": lambda env, v: scatter_to_csv(v, LABELS),
}


@pytest.fixture(scope="module")
def env(small_dataset):
    """Valid values for every argument that is not being swept."""
    catalog = small_dataset.catalog
    profiles = build_profiles(small_dataset)
    return SimpleNamespace(
        dataset=small_dataset,
        catalog=catalog,
        profiles=profiles,
        user=small_dataset.record(small_dataset.respondent_ids[0]),
        model=fit_pca(X, 2),
        row=(3,) * len(catalog),
        matrix=np.full((2, len(catalog)), 3),
    )


@pytest.mark.parametrize("value", list(HOSTILE.values()), ids=list(HOSTILE))
@pytest.mark.parametrize("call", list(CALLS))
def test_returns_or_raises_error(env, call, value):
    try:
        CALLS[call](env, value)
    except Error:
        pass
