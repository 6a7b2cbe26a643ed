import numpy as np
import pytest

from typetaste import kmeans, pca
from typetaste.errors import Error
from typetaste.metrics import silhouette_samples

from oracles import jacobi_eigh_oracle


def test_collinear_points_project_to_a_line():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    model = pca.fit_pca(X, 2)
    assert model.explained_variance[0] == pytest.approx(2.0, abs=1e-12)
    assert model.explained_variance[1] == 0.0  # clipped exactly, not just tiny
    root_half = 1.0 / np.sqrt(2.0)
    assert np.allclose(model.components[0], [root_half, root_half], atol=1e-12)
    coords = pca.project(model, X)
    expected = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)])
    assert np.allclose(coords[:, 0], expected, atol=1e-12)
    assert np.allclose(coords[:, 1], 0.0, atol=1e-12)


def test_components_are_orthonormal(rng):
    for n, d, k in [(10, 4, 4), (50, 20, 5), (30, 8, 8), (5, 12, 5)]:
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        model = pca.fit_pca(X, k)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(k)).max() < 1e-9


def test_variance_descending_and_nonnegative(rng):
    X = rng.normal(size=(40, 10))
    model = pca.fit_pca(X, 10)
    ev = model.explained_variance
    assert np.all(ev[:-1] >= ev[1:] - 1e-12)
    assert np.all(ev >= 0.0)


def test_variances_sum_to_total_variance(rng):
    X = rng.normal(size=(50, 8))
    model = pca.fit_pca(X, 8)
    total = np.var(X, axis=0, ddof=1).sum()
    assert model.explained_variance.sum() == pytest.approx(total, rel=1e-12)


def test_sign_convention_pins_largest_entry_positive(rng):
    for seed in range(5):
        X = np.random.default_rng(seed).normal(size=(30, 6))
        model = pca.fit_pca(X, 6)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0


def test_projected_training_data_is_centered_and_decorrelated(rng):
    X = rng.normal(size=(200, 7)) @ rng.normal(size=(7, 7))
    model = pca.fit_pca(X, 7)
    Z = pca.project(model, X)
    assert np.abs(Z.mean(axis=0)).max() < 1e-9
    cov = (Z.T @ Z) / (len(Z) - 1)
    assert np.allclose(cov, np.diag(model.explained_variance), atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_jacobi_oracle_on_random_data(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 20)) * rng.uniform(0.5, 4.0, size=20)
    centered = X - X.mean(axis=0)
    cov = (centered.T @ centered) / (len(X) - 1)
    oracle_values, oracle_vectors = jacobi_eigh_oracle(cov)
    # Guard: the comparison is only meaningful when eigenvalues are separated.
    gaps = np.abs(np.diff(oracle_values))
    assert gaps.min() > 1e-4, "fixture produced a near-degenerate spectrum"
    model = pca.fit_pca(X, 20)
    assert np.abs(model.explained_variance - oracle_values).max() < 1e-6
    for i, component in enumerate(model.components):
        vec = oracle_vectors[:, i]
        if np.dot(vec, component) < 0:
            vec = -vec
        assert np.abs(component - vec).max() < 1e-6


_COMPONENTS = r"n_components must be in 1\.\.min\(n_samples, n_features\)="
DEGENERATE = {
    ((1, 4), 1): r"need at least 2 samples to fit, got 1",
    ((10, 4), 0): _COMPONENTS + "4, got 0",
    ((10, 4), 5): _COMPONENTS + "4, got 5",
    ((3, 10), 4): _COMPONENTS + "3, got 4",
    ((10, 4), 2.5): r"n_components must be an integer, got float",
    ((10, 4), True): r"n_components must be an integer, got bool",
}


@pytest.mark.parametrize("shape,k", list(DEGENERATE))
def test_degenerate_inputs_rejected(shape, k):
    X = np.zeros(shape)
    with pytest.raises(Error, match=f"^{DEGENERATE[shape, k]}$"):
        pca.fit_pca(X, k)


@pytest.mark.parametrize(
    "data, name",
    [("x", "str"), ([["a", "b"]], "list"), ({"x": 1}, "dict"), ([[1], [1, 2]], "list")],
)
def test_non_numbers_rejected(data, name):
    """One data-matrix rule for PCA, k-means and the silhouette."""
    message = f"^data must be an array of numbers, got {name}$"
    for call in (
        lambda: pca.fit_pca(data, 1),
        lambda: kmeans.fit(data, kmeans.KmeansConfig(k=1)),
        lambda: silhouette_samples(data, [0, 1]),
    ):
        with pytest.raises(Error, match=message):
            call()


def test_non_2d_input_rejected():
    with pytest.raises(Error, match=r"^data must be 2-D, got shape \(5,\)$"):
        pca.fit_pca(np.zeros(5), 1)
    with pytest.raises(Error, match=r"^data must be 2-D, got shape \(2, 2, 2\)$"):
        pca.fit_pca(np.zeros((2, 2, 2)), 1)


def test_project_rejects_wrong_width(rng):
    model = pca.fit_pca(rng.normal(size=(10, 4)), 2)
    with pytest.raises(Error, match=r"^expected \(n, 4\) data, got shape \(3, 5\)$"):
        pca.project(model, np.zeros((3, 5)))
    with pytest.raises(Error, match=r"^data must be 2-D, got shape \(4,\)$"):
        pca.project(model, np.zeros(4))
