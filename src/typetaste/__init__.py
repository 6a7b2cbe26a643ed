"""Personality-type media-preference analysis.

Survey ingestion and synthesis, PCA projection, k-means clustering with
evaluation metrics, genre-pair analysis, and type-profile recommendations.
"""

from . import analysis, domain, errors, ingest, kmeans, metrics, pca, recommend
from .domain import (
    ALL_TYPES,
    Dataset,
    GenreCatalog,
    MbtiType,
    SurveyRecord,
    default_catalog,
    load_catalog,
    parse_mbti,
    save_catalog,
)
from .ingest import (
    SynthConfig,
    TypeFrequencyTable,
    generate_synthetic,
    load_dataset,
    save_dataset,
    skew_summary,
    survey_frequency_table,
    type_frequencies,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TYPES",
    "Dataset",
    "GenreCatalog",
    "MbtiType",
    "SurveyRecord",
    "SynthConfig",
    "TypeFrequencyTable",
    "analysis",
    "default_catalog",
    "domain",
    "errors",
    "generate_synthetic",
    "ingest",
    "kmeans",
    "load_catalog",
    "load_dataset",
    "metrics",
    "parse_mbti",
    "pca",
    "recommend",
    "save_catalog",
    "save_dataset",
    "skew_summary",
    "survey_frequency_table",
    "type_frequencies",
]
