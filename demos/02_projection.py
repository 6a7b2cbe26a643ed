"""Project the 121-dimensional rating space down to a few principal axes.

Shows how much rating variance the leading components carry and exports
a 2-D scatter layout (with cluster centroids) ready for plotting.
"""

import tempfile
from pathlib import Path

import numpy as np

from typetaste import analysis, ingest, kmeans, pca

dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=2026))
X = dataset.rating_matrix(dtype=np.float64)

print("Fitting a 10-component reduction of the full rating matrix...")
model = pca.fit_pca(X, 10)
total = X.var(axis=0, ddof=1).sum()
running = 0.0
for i, variance in enumerate(model.explained_variance, start=1):
    running += variance
    print(f"  component {i:2d}: variance {variance:7.3f}  cumulative {running / total:6.1%}")

projected = pca.project(model, X)
print()
print(f"Projected shape: {projected.shape}; per-axis mean is ~0 by construction:")
print(f"  {np.round(projected.mean(axis=0), 12)[:4]} ...")

print()
print("Clustering in the reduced space and exporting a scatter layout...")
result = kmeans.fit(projected[:, :2], kmeans.KmeansConfig(k=16, seed=7, restarts=5))
text = analysis.scatter_to_csv(projected[:, :2], dataset.type_codes, result.assignments)
rows = text.count("\n") - 1
centroids = len(np.unique(result.assignments))
with tempfile.TemporaryDirectory(prefix="typetaste_") as tmp:
    out = Path(tmp) / "scatter.csv"
    out.write_text(text, encoding="utf-8")
    print(f"  wrote {rows} rows ({centroids} centroid markers) to {out}")
