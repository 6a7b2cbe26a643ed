"""Benchmark the three clustering regimes across all five media categories.

For each category the same data is clustered with smart seeding, uniform
seeding, and seeding after a 2-D reduction, then scored against the true
personality types on the full metric battery.
"""

from typetaste import ingest, metrics

dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=2026))
print(
    f"Comparing {len(metrics.ALL_METHODS)} clustering methods over "
    f"{len(dataset.catalog.category_names)} rating categories (k=16)..."
)
print()

rows = metrics.run_method_comparison(dataset, k=16, seed=0, restarts=10)
print(metrics.comparison_to_csv(rows))
print("Columns: seconds spent fitting, then cluster/class agreement scores")
print("(first five in [0,1], adjusted scores near 0 for chance) and the")
print("geometric silhouette in [-1,1].")
print()
print("Close-to-chance scores here mirror what weak class structure looks")
print("like: each synthetic rating is drawn with standard deviation 1 around")
print("its type's planted mean, so the types' rating profiles overlap.")
