"""Principal component analysis over mean-centered rating matrices: fit a
model, then project rows into its component space.

Components come from an eigendecomposition of the sample covariance matrix
(``n - 1`` denominator).  Rows of ``components`` are orthonormal, ordered by
descending explained variance, and sign-fixed so the entry of largest
magnitude in each component is positive, which makes fits reproducible across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import check_int, data_matrix
from .errors import Error


@dataclass(frozen=True, eq=False)
class PcaModel:
    """A fitted projection: feature means, component rows, and per-component
    explained variance."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def fit_pca(data: np.ndarray, n_components: int) -> PcaModel:
    """Fit a PCA with ``n_components`` directions on ``data`` (rows are samples).

    Requires at least two samples and ``1 <= n_components <= min(n_samples,
    n_features)``.  Covariance eigenvalues are clipped at zero, so collinear
    data reports exactly zero variance for the flat directions.
    """
    X = data_matrix(data)
    n, d = X.shape
    if n < 2:
        raise Error(f"need at least 2 samples to fit, got {n}")
    k = check_int(n_components, "n_components")
    if not 1 <= k <= min(n, d):
        raise Error(
            f"n_components must be in 1..min(n_samples, n_features)="
            f"{min(n, d)}, got {k}"
        )
    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    variance = np.clip(eigenvalues[order], 0.0, None)
    components = eigenvectors[:, order].T.copy()
    # Fix each component's sign so its largest-magnitude entry is positive.
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def project(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Map the rows of ``data`` into the fitted component space."""
    X = data_matrix(data)
    if X.shape[1] != model.n_features:
        raise Error(f"expected (n, {model.n_features}) data, got shape {np.shape(data)}")
    return (X - model.mean) @ model.components.T
