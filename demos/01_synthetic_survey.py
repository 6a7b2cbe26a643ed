"""Generate the reference-frequency synthetic survey and look at its skew.

The generator plants per-type rating tendencies, so downstream clustering
has real structure to find while staying fully reproducible from one seed.
"""

import numpy as np

from typetaste import ALL_TYPES, ingest

print("Building a synthetic survey with the reference type frequencies...")
config = ingest.SynthConfig(seed=2026)
dataset = ingest.generate_synthetic(config)
matrix = dataset.rating_matrix()
print(f"  {len(dataset)} respondents x {matrix.shape[1]} genre ratings")
print(f"  ratings span {matrix.min()}..{matrix.max()} (0 means never tried)")

print()
print("Type frequencies, largest first:")
counts = np.bincount(dataset.type_codes, minlength=len(ALL_TYPES))
ranked = [(ALL_TYPES[i], counts[i]) for i in np.argsort(-counts, kind="stable") if counts[i]]
for mbti, count in ranked:
    print(f"  {mbti}  {count:4d}  " + "#" * (count // 5))

introverts = sum(count for mbti, count in ranked if mbti[0] == "i")
print()
print(f"Introvert share: {introverts / counts.sum():.1%}")
print(f"Four most common types: {', '.join(mbti for mbti, _ in ranked[:4])}")
print()
print("Re-running with the same seed reproduces the file byte for byte;")
print("change the seed (or supply your own frequency table) for variations.")
