"""Cross-tabulate two genres for one type and summarize the inclination.

The planted generator gives intp respondents a strong pull toward
Psychology and a push away from Religion & Spirituality, which shows up
directly in the joint rating table and the per-genre summaries.
"""

from typetaste import analysis, ingest
from typetaste.domain import PSYCHOLOGY, RELIGION_SPIRITUALITY

dataset = ingest.generate_synthetic(ingest.SynthConfig(seed=2026))

table = analysis.pair_rating_table(dataset, "intp", PSYCHOLOGY, RELIGION_SPIRITUALITY)
print(f"Joint ratings for intp: {PSYCHOLOGY} (rows) vs {RELIGION_SPIRITUALITY} (cols)")
print("rows/cols run 0..6; cell = respondent count")
for rating, row in enumerate(table.counts):
    print(f"  {rating}: " + " ".join(f"{c:3d}" for c in row))
print(f"  {table.total} intp respondents in total")

summary = analysis.inclination(table)
print()
for genre, lean in ((summary.genre_a, summary.a), (summary.genre_b, summary.b)):
    print(
        f"{genre}: mean {lean.mean:.2f} over {lean.raters} raters, "
        f"{lean.enjoyment_share:.0%} rate it 4+"
    )
print(f"=> intp respondents lean toward {summary.leaning}")

print()
print("The frequency helper feeds bar plots; restricted to four types:")
subset = dataset.restrict_types(["intp", "intj", "esfj", "esfp"])
counts = ingest.type_frequencies(subset)
for mbti, count in counts.ranked():
    if count:
        print(f"  {mbti.value}  {count:4d}  " + "#" * (count // 5))
