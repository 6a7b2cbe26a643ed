"""Personality-type media-preference analysis.

Survey ingestion and synthesis, PCA projection, k-means clustering with
evaluation metrics, genre-pair analysis, and type-profile recommendations.
"""

from . import analysis, domain, errors, ingest, kmeans, metrics, pca, recommend
from .domain import (
    ALL_TYPES,
    Dataset,
    GenreCatalog,
    SurveyRecord,
    default_catalog,
    load_catalog,
    save_catalog,
    type_code,
)
from .ingest import SynthConfig, generate_synthetic, load_dataset, save_dataset

__version__ = "0.1.0"

__all__ = [
    "ALL_TYPES",
    "Dataset",
    "GenreCatalog",
    "SurveyRecord",
    "SynthConfig",
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
    "pca",
    "recommend",
    "save_catalog",
    "save_dataset",
    "type_code",
]
