"""Benchmark of the typetaste pipeline: one workload per run.

Usage::

    python3 perfbench/run.py --workload paper-evaluate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by every child.  With
# OpenBLAS's default threading the small products inside ``evaluate`` start
# worker threads that burn CPU without shortening the call (about 4.2 s of
# CPU for 2.5 s of wall time at n = 1020, on 2 cores).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import survey as sv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
ENTRY = HERE / "typetaste_entry.py"

MIN_ROUNDS = 1
MAX_MEASURE_S = 120.0
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
TOP = 20
K = 16
SERVE_QUERIES = 12000  # per serving phase
SERVE_CHECK_EVERY = 50
# The serving traffic is an assumption, not taken from any measured or cited
# service: this mix of query kinds, a refresh after each fifth of a phase's
# queries, batches of n/40 respondents, and half of the user queries going to
# respondents who arrived.  ``recommend.read_qps`` and ``recommend.refresh_ms``
# (traced run) give the read and write costs apart, so a change can be judged
# at any other refresh share.
QUERY_MIX = (("type", 0.6), ("category", 0.2), ("user", 0.2))
PASSES = 4


def spread(samples: int) -> set[int]:
    """The passes of a round that take a sample, spread evenly."""
    return {i * PASSES // samples for i in range(samples)}


@dataclass(frozen=True)
class Workload:
    """What one round runs.  A sample of an in-process operation is a batch
    of calls lasting a second or more, and its value is the time per call;
    samples of the different operations are interleaved across the round.
    Every number of samples is at most ``PASSES``."""

    scale: int  # survey size: reference type counts times this
    analyse_arrivals: bool  # evaluate/cluster the arrivals file, not the survey
    restarts: int  # k-means restarts for evaluate; cluster keeps its default of 10
    evaluate: tuple[int, int]  # (calls per sample, samples per round)
    cluster: tuple[int, int]
    synth: tuple[int, int]
    serve_samples: int  # serving phases per round
    upload_not_utf8: bool


# Calls per sample are sized from the reference figures (see README) so that
# a sample lasts 1.3 s or more, and over a second in the machine's fast
# stretches.
WORKLOADS = {
    "paper-evaluate": Workload(1, False, 10, (1, 3), (4, 3), (24, 3), 3, False),
    "large-evaluate": Workload(4, False, 1, (1, 2), (1, 3), (5, 2), 2, False),
    "survey-service": Workload(10, True, 6, (1, 3), (4, 3), (3, 2), 2, True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "evaluate_s": "s", "cluster_s": "s", "synth_s": "s",
    "queries_s": "s", "recommend_qps": "queries/s", "peak_rss_mb": "MB",
}


def child_env(trace_file: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    return env


class Bench:
    """Inputs, program handles and measurements of one run."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.dir = workdir
        self.trace = None  # the run's Tracer, when tracing
        self.tracer = None  # set to ``self.trace`` during traced rounds
        self.undo = None  # removes the wrappers during traced rounds
        self.paired: list[float] = []  # untraced evaluate calls of traced rounds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}  # untraced timings only
        self.latencies: list[float] = []
        self.refreshes: list[float] = []
        self.reads: list[tuple[int, float]] = []  # (queries, seconds) less refreshes
        self.outputs: dict[str, list] = {}
        self.upload_result = None  # (exit code, last stderr line) of a failed upload

    # ----------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Import the package, write the inputs and warm every code path."""
        sys.path.insert(0, str(SRC))
        from typetaste import cli, domain, ingest, metrics, recommend

        self.cli, self.domain, self.ingest = cli, domain, ingest
        self.metrics, self.recommend = metrics, recommend
        self.catalog = domain.default_catalog()
        genres = self.genres = self.catalog.genres
        w = self.workload
        self.dir.mkdir(parents=True, exist_ok=True)

        model = sv.SurveyModel(self.seed, genres)
        self.survey = sv.make_survey(model, self.seed, w.scale)
        self.arrivals = sv.make_arrivals(model, self.seed, len(self.survey) // 40)
        self.survey_csv = self.write("survey.csv", sv.to_csv(self.survey, genres))
        self.arrival_csvs = [
            self.write(f"arrival-{b}.csv", sv.to_csv(batch, genres))
            for b, batch in enumerate(self.arrivals)
        ]
        arrived = self.arrivals[0]
        for batch in self.arrivals[1:]:
            arrived = arrived.concat(batch)
        arrivals_csv = self.write("arrivals.csv", sv.to_csv(arrived, genres))
        self.analysed = arrived if w.analyse_arrivals else self.survey
        self.analysis_csv = arrivals_csv if w.analyse_arrivals else self.survey_csv
        self.freq = sv.frequencies(w.scale)
        self.freq_json = self.write("freq.json", json.dumps(self.freq).encode())
        self.bad_csv = self.write("not-utf8.csv", sv.not_utf8_csv(genres))
        self.plan_queries()
        self.plan_serving()
        self.base = ingest.load_dataset(self.survey_csv)

        # Warm-up: a small evaluate (k-means, PCA, every metric, lazy scipy
        # imports) and the serving path.
        cli.run(["evaluate", "--input", str(arrivals_csv), "--category", "video-games",
                 "--restarts", "1", "--format", "json", "-o", str(self.dir / "warm.json")])
        profiles = recommend.build_profiles(self.base)
        for code in sv.TYPES:
            recommend.recommend_for_type(profiles, code, top_n=10)

    def write(self, name: str, data: bytes) -> Path:
        path = self.dir / name
        path.write_bytes(data)
        return path

    def plan_queries(self) -> None:
        """The CLI query sequence of one round, each a fresh process."""
        rng = np.random.default_rng([self.seed, 4])
        s = str(self.survey_csv)
        self.rec_type = sv.TYPES[int(rng.integers(len(sv.TYPES)))]
        self.rec_row = int(rng.integers(len(self.survey)))
        self.queries = [
            ("validate", ["validate", "--input", s]),
            ("freq", ["freq", "--input", s]),
            *[("pairtable:" + code, ["pairtable", "--input", s, "--type", code,
                                     "--genre-a", sv.PSYCHOLOGY,
                                     "--genre-b", sv.RELIGION])
              for code in sv.TOP_TYPES],
            ("recommend-type", ["recommend", "--input", s, "--type", self.rec_type,
                                "--top", str(TOP), "--format", "json"]),
            ("recommend-user", ["recommend", "--input", s,
                                "--user-row", self.survey.ids[self.rec_row],
                                "--top", str(TOP), "--format", "json"]),
            ("scatter", ["scatter", "--input", s, "--dims", "2", "--with-clusters",
                         "--k", str(K), "--restarts", "1"]),
        ]

    def plan_serving(self) -> None:
        """``SERVE_QUERIES`` queries in the ``QUERY_MIX`` proportions; the
        arrival batches come in at evenly spaced points.  Once a batch has
        arrived, half of the user queries ask for a respondent who arrived."""
        rng = np.random.default_rng([self.seed, 5])
        batches = len(self.arrivals)
        self.refresh_at = {SERVE_QUERIES * (b + 1) // (batches + 1): b for b in range(batches)}
        kinds = rng.choice(len(QUERY_MIX), size=SERVE_QUERIES, p=[p for _, p in QUERY_MIX])
        categories = self.catalog.category_names
        plan, arrived = [], 0
        for i, kind in enumerate(kinds):
            if i in self.refresh_at:
                arrived += 1
            code = sv.TYPES[int(rng.integers(len(sv.TYPES)))]
            label = QUERY_MIX[kind][0]
            if label == "type":
                plan.append(("type", code, None))
            elif label == "category":
                plan.append(("category", code, categories[int(rng.integers(len(categories)))]))
            elif arrived and rng.random() < 0.5:
                batch = self.arrivals[int(rng.integers(arrived))]
                plan.append(("user", batch.ids[int(rng.integers(len(batch)))], None))
            else:
                plan.append(("user", self.survey.ids[int(rng.integers(len(self.survey)))], None))
        self.plan = plan

    # ------------------------------------------------------------- operations

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def record(self, kind: str, value: float) -> None:
        if self.tracer is None:
            self.samples.setdefault(kind, []).append(value)

    def in_process(self, kind: str, argv: list[str]) -> float:
        """One ``typetaste`` command through ``cli.run``; returns its time."""
        self.attempted += 1
        with self.span("op." + kind):
            start = time.perf_counter()
            code = self.cli.run(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{kind} exited {code}")
        return elapsed

    def sample(self, kind: str, calls: int, argv_for) -> None:
        total = sum(self.in_process(kind, argv_for(i)) for i in range(calls))
        self.record(kind + "_s", total / calls)

    def child(self, kind: str, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """One ``typetaste`` command as a fresh interpreter, like a shell user."""
        self.attempted += 1
        trace_file = None if self.tracer is None else self.dir / "child-trace.json"
        with self.span("op." + kind) as index:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ENTRY), *argv], cwd=ROOT, env=child_env(trace_file),
                capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
            elapsed = time.perf_counter() - start
        if trace_file is not None and trace_file.exists():
            self.tracer.adopt(json.loads(trace_file.read_text()), index)
            trace_file.unlink()
        return proc, elapsed

    def run_queries(self, queries: list, outputs: dict) -> float:
        """Run some of the query sequence; return their total time."""
        total = 0.0
        for label, argv in queries:
            proc, elapsed = self.child("query", argv)
            total += elapsed
            if proc.returncode != 0:
                self.failed += 1
                self.problems.append(f"{label} exited {proc.returncode}: {proc.stderr[-300:]!r}")
            outputs[label] = proc.stdout.decode("utf-8")
        return total

    def upload_not_utf8(self) -> None:
        """A CSV that is not UTF-8 must be refused with exit 1 and a single
        ``typetaste: error:`` line on stderr."""
        proc, _ = self.child("upload", ["validate", "--input", str(self.bad_csv)])
        lines = proc.stderr.decode("utf-8", "replace").splitlines()
        if not (proc.returncode == 1 and len(lines) == 1
                and lines[0].startswith("typetaste: error:")):
            self.failed += 1
            self.upload_result = (proc.returncode, lines[-1] if lines else "")

    def serve(self) -> list:
        """Closed loop, one client: build profiles once, answer the planned
        queries, and fold each arrival batch in when it is due."""
        recommend, dataset = self.recommend, self.base
        checked, refreshing = [], 0.0
        with self.span("op.serve"):
            profiles = recommend.build_profiles(dataset)
            start = time.perf_counter()
            for i, (kind, a, b) in enumerate(self.plan):
                if i in self.refresh_at:
                    self.attempted += 1
                    began = time.perf_counter()
                    with self.span("serve.refresh"):
                        batch = self.ingest.load_dataset(self.arrival_csvs[self.refresh_at[i]])
                        dataset = self.domain.Dataset(
                            self.catalog, dataset.records + batch.records)
                        profiles = recommend.build_profiles(dataset)
                    refreshed = time.perf_counter() - began
                    refreshing += refreshed
                    if self.tracer is None:
                        self.refreshes.append(refreshed)
                self.attempted += 1
                began = time.perf_counter()
                if kind == "user":
                    rec = recommend.recommend_for_user(profiles, dataset.record(a), top_n=10)
                else:
                    rec = recommend.recommend_for_type(profiles, a, category=b, top_n=10)
                done = time.perf_counter()
                if self.tracer is None:
                    self.latencies.append(done - began)
                if i % SERVE_CHECK_EVERY == 0:
                    checked.append((i, len(dataset), [(it.genre, it.score) for it in rec.items]))
            elapsed = time.perf_counter() - start
        self.record("recommend_qps", len(self.plan) / elapsed)
        if self.tracer is None:
            self.reads.append((len(self.plan), elapsed - refreshing))
        return checked

    def round(self) -> None:
        """``PASSES`` passes; each runs its share of every operation's
        samples and of the query sequence, so that every metric samples the
        whole round and a slow stretch of the machine is shared out."""
        w, d = self.workload, self.dir
        analysis, outputs = str(self.analysis_csv), {"evaluate": [], "serve": []}
        fit = ["--input", analysis, "--k", str(K), "--format", "json"]
        queries_s = 0.0
        for p in range(PASSES):
            if p in spread(w.evaluate[1]):
                evaluate = ["evaluate", *fit, "--restarts", str(w.restarts),
                            "-o", str(d / "evaluate.json")]
                twin_first = len(self.paired) % 2 == 0
                if self.tracer is not None and twin_first:
                    outputs["evaluate"].append(self.untraced_call(evaluate))
                self.sample("evaluate", w.evaluate[0], lambda i: evaluate)
                outputs["evaluate"].append(self.take(d / "evaluate.json"))
                if self.tracer is not None and not twin_first:
                    outputs["evaluate"].append(self.untraced_call(evaluate))
            if p in spread(w.cluster[1]):
                # Each call starts from its own seed, so that a run averages
                # Lloyd's iteration count over many starts.
                self.sample("cluster", w.cluster[0], lambda i: [
                    "cluster", *fit, "--seed", str(p * w.cluster[0] + i),
                    "-o", str(d / "cluster.json")])
            if p in spread(w.synth[1]):
                self.sample("synth", w.synth[0], lambda i: [
                    "synth", "--freq-file", str(self.freq_json), "--seed", str(self.seed),
                    "-o", str(d / "synth.csv")])
            if p in spread(w.serve_samples):
                outputs["serve"].append(self.serve())
            queries_s += self.run_queries(self.queries[p::PASSES], outputs)
        self.record("queries_s", queries_s)
        outputs["cluster"] = self.take(d / "cluster.json")
        outputs["synth"] = self.take(d / "synth.csv")
        if w.upload_not_utf8:
            self.upload_not_utf8()
        for kind, value in outputs.items():
            if isinstance(value, list):
                self.outputs.setdefault(kind, []).extend(value)
            else:
                self.outputs.setdefault(kind, []).append(value)

    def untraced_call(self, argv: list[str]) -> bytes | None:
        """In a traced round, one call with the wrappers taken off, next to
        its traced twin (before and after it in turn), so
        that ``trace.overhead_s`` is a paired difference, not the machine's
        drift between rounds.  Returns the call's output file."""
        import tracing

        tracer, self.tracer = self.tracer, None
        self.undo()
        try:
            self.paired.append(self.in_process("evaluate", argv))
        finally:
            self.undo, self.tracer = tracing.install(tracer), tracer
        return self.take(Path(argv[argv.index("-o") + 1]))

    @staticmethod
    def take(path: Path) -> bytes | None:
        """Read and remove an output file, so that a later call that fails
        cannot pass off this file as its own."""
        data = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        return data

    # ----------------------------------------------------------------- checks

    def check(self) -> None:
        try:
            self.problems += self.find_problems()
        except Exception as exc:  # output too broken to read is a failed check
            self.problems.append(f"outputs could not be checked: {exc!r}")

    def find_problems(self) -> list[str]:
        import checks

        data, genres = self.survey, self.genres
        evaluated = [json.loads(text) for text in self.outputs.pop("evaluate")]
        clustered = [json.loads(text) for text in self.outputs["cluster"]]
        for doc in clustered:
            doc.pop("elapsed_seconds")  # wall clock, differs between rounds
        self.outputs["cluster"] = clustered
        first = {k: v[0] for k, v in self.outputs.items()}
        found = [f"{kind} output changed between rounds"
                 for kind, values in self.outputs.items() if values.count(values[0]) != len(values)]
        found += checks.check_synth(first["synth"], self.freq, len(genres))
        found += checks.check_validate(first["validate"], data, len(genres))
        found += checks.check_freq(first["freq"], data)
        for code in sv.TOP_TYPES:
            found += checks.check_pairtable(first["pairtable:" + code], data, code, genres)
        found += checks.check_recommend_type(
            first["recommend-type"], data, self.rec_type, genres, TOP)
        found += checks.check_recommend_user(
            first["recommend-user"], data, self.rec_row, genres, TOP)
        found += checks.check_scatter(first["scatter"], data, K)
        found += checks.check_cluster(first["cluster"], self.analysed.ratings.astype(float), K)
        found += checks.check_metric_functions(
            self.metrics, self.analysed.type_codes, np.asarray(first["cluster"]["assignments"]))
        found += checks.check_evaluate(evaluated)
        found += self.check_serving(checks, first["serve"])
        return found

    def check_serving(self, checks, checked: list) -> list[str]:
        states = [self.survey]
        for batch in self.arrivals:
            states.append(states[-1].concat(batch))
        by_size = {len(s): s for s in states}
        found = []
        for i, size, items in checked:
            state = by_size[size]
            kind, a, category = self.plan[i]
            if kind == "user":
                row = state.ids.index(a)
                scores, offered = checks.user_scores(state, row)
                expected = {g: s for g, s, ok in zip(self.genres, scores.tolist(), offered) if ok}
            else:
                scores = np.nan_to_num(checks.type_profile_scores(state, a))
                names = self.catalog.genres_in(category) if category else self.genres
                expected = {g: float(scores[self.genres.index(g)]) for g in names}
            found += [f"query {i}: {p}" for p in checks.ranking(items, expected, 10)]
        return found


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(args: argparse.Namespace) -> float:
    """Median over fresh processes of the time from start to ready."""
    times = []
    for i in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe", str(i)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe {i} failed with exit code {code}")
    return statistics.median(times)


def run_rounds(bench: Bench, seconds: float, trace: bool) -> int:
    """As many whole rounds as fit in ``seconds``, at least one.  With
    tracing, rounds alternate untraced and traced, ending on a traced one."""
    import tracing

    if trace:
        bench.trace = tracing.Tracer()
    budget = min(seconds, MAX_MEASURE_S)
    start, rounds = time.perf_counter(), 0
    while rounds < MIN_ROUNDS or (trace and rounds % 2) or (
        (time.perf_counter() - start) * (rounds + 1) / rounds <= budget
    ):
        if trace and rounds % 2:
            bench.tracer = bench.trace
            bench.undo = tracing.install(bench.tracer)
        try:
            with bench.span("round"):
                bench.round()
        finally:
            if bench.undo is not None:
                bench.undo()
                bench.tracer = bench.undo = None
        rounds += 1
    return rounds


def end_to_end(bench: Bench, setup_s: float) -> dict[str, float]:
    timed = {kind: statistics.median(values) for kind, values in bench.samples.items()}
    return {"setup_s": setup_s, **timed, "peak_rss_mb": peak_rss_mb()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "typetaste" / "__init__.py").is_file():
        print(f"perfbench: no typetaste sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    bench = Bench(args.workload, args.seed, WORK / tag)
    try:
        if args.probe is not None:
            bench.setup()
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args)
        bench.setup()
        rounds = run_rounds(bench, args.seconds, bool(args.trace))
        bench.check()
        if args.trace:
            import layers

            metrics = layers.per_layer(bench, rounds)
            bench.trace.dump(WORK / f"trace-{args.workload}-s{args.seed}.json")
            units = layers.UNITS
        else:
            metrics = end_to_end(bench, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if bench.failed:
        detail = bench.upload_result
        print(f"perfbench: {bench.failed} of {bench.attempted} operations failed"
              + (f"; not-UTF-8 upload gave {detail}" if detail else ""), file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
