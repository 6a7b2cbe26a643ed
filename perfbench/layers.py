"""Per-layer metrics of the traced run, computed from its spans.

Times and counts are per traced round unless the name says otherwise:
``cli.import_s`` is per process, ``kmeans.iter_us`` per Lloyd iteration,
``recommend.p50_ms``/``p99_ms`` per serving query, ``recommend.refresh_ms``
per refresh, and the ``evaluate.*`` figures per ``evaluate`` call.  The
``recommend`` latencies, ``read_qps`` and ``refresh_ms`` come from the
untraced rounds.  A metric scoped to some operations only counts spans made
while one of those operations ran.
"""

from __future__ import annotations

import statistics

import tracing

UNITS = {
    "cli.import_s": "s", "cli.validate_s": "s", "cli.freq_s": "s",
    "cli.pairtable_s": "s", "cli.recommend_s": "s", "cli.scatter_s": "s",
    "ingest.load_s": "s", "ingest.load_rows": "count",
    "ingest.generate_s": "s", "ingest.to_csv_s": "s",
    "domain.matrix_s": "s",
    "pca.fit_s": "s", "pca.project_s": "s", "pca.fit_calls": "count",
    "kmeans.seed_s": "s", "kmeans.lloyd_s": "s", "kmeans.lloyd_calls": "count",
    "kmeans.lloyd_iters": "count", "kmeans.lloyd_maxed": "count", "kmeans.iter_us": "us",
    "metrics.agreement_s": "s", "metrics.emi_s": "s", "metrics.silhouette_s": "s",
    "analysis.pairtable_s": "s", "analysis.scatter_s": "s",
    "recommend.profiles_s": "s", "recommend.refresh_s": "s", "recommend.rank_s": "s",
    "recommend.p50_ms": "ms", "recommend.p99_ms": "ms",
    "recommend.read_qps": "queries/s", "recommend.refresh_ms": "ms",
    "trace.overhead_s": "s",
    "evaluate.traced_s": "s", "evaluate.untraced_s": "s",
    "evaluate.cli_self_s": "s", "evaluate.ingest_self_s": "s", "evaluate.domain_self_s": "s",
    "evaluate.pca_self_s": "s", "evaluate.kmeans_self_s": "s", "evaluate.metrics_self_s": "s",
}

AGREEMENT = (
    "metrics.contingency", "metrics.homogeneity_completeness_v", "metrics.adjusted_rand",
    "metrics.adjusted_mutual_information", "metrics.mutual_information",
    "metrics.class_entropy", "metrics.cluster_entropy",
)
FIT_OPS = ("evaluate", "cluster")


class Spans:
    """The run's spans with each one's self time, the operation it ran
    under, and its module (``op`` spans count toward ``cli``)."""

    def __init__(self, spans: list[list]) -> None:
        self.rows = spans
        self.own = tracing.self_times(spans)
        self.op: list[str | None] = []
        for name, _, _, parent, _ in spans:
            # A parent always comes before its children in the list.
            self.op.append(name[3:] if name.startswith("op.") else
                           self.op[parent] if parent >= 0 else None)

    def select(self, names, ops=None, parent=None):
        for i, (name, start, end, up, notes) in enumerate(self.rows):
            if name in names and (ops is None or self.op[i] in ops) and (
                parent is None or (up >= 0 and self.rows[up][0] == parent)
            ):
                yield i

    def total(self, names, ops=None, parent=None, own=False) -> float:
        rows = self.rows
        return sum(self.own[i] if own else rows[i][2] - rows[i][1]
                   for i in self.select(names, ops, parent))

    def number(self, names, ops=None) -> int:
        return sum(1 for _ in self.select(names, ops))

    def note(self, names, key, ops=None) -> float:
        """Sum of a count noted on spans; a call that raised noted none."""
        return sum((self.rows[i][4] or {}).get(key, 0) for i in self.select(names, ops))

    def module_self(self, op: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, (name, *_rest) in enumerate(self.rows):
            if self.op[i] == op:
                module = "cli" if name.startswith("op.") else name.split(".")[0]
                out[module] = out.get(module, 0.0) + self.own[i]
        return out


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(bench, rounds: int) -> dict[str, float]:
    s = Spans(bench.trace.spans)
    per = 1.0 / (rounds // 2)  # every second round is traced
    # Each traced evaluate call has an untraced twin run next to it.
    traced_calls = [s.rows[i][2] - s.rows[i][1] for i in s.select({"op.evaluate"})]
    calls = len(traced_calls)
    overhead = statistics.mean(
        t - u for t, u in zip(traced_calls, bench.paired, strict=True))
    read_queries, read_s = map(sum, zip(*bench.reads))
    lloyd_s = s.total({"kmeans.lloyd"}, FIT_OPS)
    lloyd_iters = s.note({"kmeans.lloyd"}, "iterations", FIT_OPS)
    modules = s.module_self("evaluate")
    out = {
        "cli.import_s": statistics.median(
            s.rows[i][2] - s.rows[i][1] for i in s.select({"cli.import"})),
        "cli.validate_s": per * s.total({"cli.cmd_validate"}, {"query"}),
        "cli.freq_s": per * s.total({"cli.cmd_freq"}, {"query"}),
        "cli.pairtable_s": per * s.total({"cli.cmd_pairtable"}, {"query"}),
        "cli.recommend_s": per * s.total({"cli.cmd_recommend"}, {"query"}),
        "cli.scatter_s": per * s.total({"cli.cmd_scatter"}, {"query"}),
        "ingest.load_s": per * s.total({"ingest.load_dataset"}),
        "ingest.load_rows": per * s.note({"ingest.load_dataset"}, "rows"),
        "ingest.generate_s": per * s.total({"ingest.generate_synthetic"}),
        "ingest.to_csv_s": per * s.total({"ingest.dataset_to_csv"}),
        "domain.matrix_s": per * s.total(
            {"domain.Dataset.feature_matrix", "domain.Dataset.rating_matrix"}),
        "pca.fit_s": per * s.total({"pca.fit_pca"}, {"evaluate"}),
        "pca.project_s": per * s.total({"pca.project"}, {"evaluate"}),
        "pca.fit_calls": per * s.number({"pca.fit_pca"}, {"evaluate"}),
        "kmeans.seed_s": per * s.total({"kmeans.init_kmeanspp", "kmeans.init_random"}, FIT_OPS),
        "kmeans.lloyd_s": per * lloyd_s,
        "kmeans.lloyd_calls": per * s.number({"kmeans.lloyd"}, FIT_OPS),
        "kmeans.lloyd_iters": per * lloyd_iters,
        "kmeans.lloyd_maxed": per * s.note({"kmeans.lloyd"}, "maxed", FIT_OPS),
        "kmeans.iter_us": 1e6 * lloyd_s / lloyd_iters,
        "metrics.agreement_s": per * s.total(AGREEMENT, {"evaluate"}, own=True),
        "metrics.emi_s": per * s.total({"metrics.expected_mutual_information"}, {"evaluate"}),
        "metrics.silhouette_s": per * s.total({"metrics.silhouette"}, {"evaluate"}),
        "analysis.pairtable_s": per * s.total(
            {"analysis.pair_rating_table", "analysis.pair_table_to_csv"}),
        "analysis.scatter_s": per * s.total(
            {"analysis.scatter_export", "analysis.scatter_to_csv"}),
        "recommend.profiles_s": per * s.total({"recommend.build_profiles"}, parent="op.serve"),
        "recommend.refresh_s": per * s.total({"serve.refresh"}),
        "recommend.rank_s": per * s.total(
            {"recommend.recommend_for_type", "recommend.recommend_for_user"}, parent="op.serve"),
        "recommend.p50_ms": 1e3 * percentile(bench.latencies, 0.50),
        "recommend.p99_ms": 1e3 * percentile(bench.latencies, 0.99),
        "recommend.read_qps": read_queries / read_s,
        "recommend.refresh_ms": 1e3 * statistics.mean(bench.refreshes),
        "trace.overhead_s": overhead,
        "evaluate.traced_s": statistics.mean(traced_calls),
        "evaluate.untraced_s": statistics.mean(bench.paired),
    }
    for module in ("cli", "ingest", "domain", "pca", "kmeans", "metrics"):
        out[f"evaluate.{module}_self_s"] = modules.pop(module, 0.0) / calls
    if modules:
        raise RuntimeError(f"evaluate spans outside the reported modules: {sorted(modules)}")
    return out

