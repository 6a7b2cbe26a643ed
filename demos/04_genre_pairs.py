"""Cross-tabulate two genres for one type and read its inclination from the
per-type profiles that also drive the recommender.

The planted generator gives intp respondents a strong pull toward
Psychology and a push away from Religion & Spirituality, which shows up
directly in the joint rating table and the per-genre profile means.
"""

import numpy as np

from typetaste import analysis, ingest, recommend
from typetaste.domain import ALL_TYPES, PSYCHOLOGY, RELIGION_SPIRITUALITY, TYPE_INDEX

dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=2026))

table = analysis.pair_rating_table(dataset, "intp", PSYCHOLOGY, RELIGION_SPIRITUALITY)
print(f"Joint ratings for intp: {PSYCHOLOGY} (rows) vs {RELIGION_SPIRITUALITY} (cols)")
print("rows/cols run 0..6; cell = respondent count")
for rating, row in enumerate(table):
    print(f"  {rating}: " + " ".join(f"{c:3d}" for c in row))
print(f"  {table.sum()} intp respondents in total")

profiles = recommend.build_profiles(dataset)
intp = TYPE_INDEX["intp"]
print()
for genre in (PSYCHOLOGY, RELIGION_SPIRITUALITY):
    g = dataset.catalog.index(genre)
    print(
        f"{genre}: mean {profiles.mean[intp, g]:.2f} over {profiles.support[intp, g]} raters, "
        f"{profiles.enjoyment_share[intp, g]:.0%} rate it 4+"
    )
leaning = analysis.inclination(profiles, "intp", PSYCHOLOGY, RELIGION_SPIRITUALITY)
print(f"=> intp respondents lean toward {leaning}")

print()
print("Per-type counts feed bar plots; restricted to four types:")
subset = dataset.restrict_types(["intp", "intj", "esfj", "esfp"])
counts = np.bincount(subset.type_codes, minlength=len(ALL_TYPES))
for i in np.argsort(-counts, kind="stable"):
    if counts[i]:
        print(f"  {ALL_TYPES[i]}  {counts[i]:4d}  " + "#" * (counts[i] // 5))
