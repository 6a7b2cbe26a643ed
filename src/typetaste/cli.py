"""Command-line surface for the survey analysis pipeline.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on data or
validation errors.  Commands write to ``-o <path>`` or stdout when omitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import analysis, ingest, kmeans, metrics, pca, recommend
from .domain import ALL_TYPES, Dataset, GenreCatalog, check_seed, default_catalog, load_catalog
from .domain import read_utf8, type_code
from .errors import Error

PROG = "typetaste"


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    try:
        return check_seed(value)
    except Error as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _mbti_arg(text: str) -> str:
    try:
        return ALL_TYPES[type_code(text)]
    except Error as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _blend_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"blend must be a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"blend must be within 0..1, got {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_catalog_arg(args: argparse.Namespace) -> GenreCatalog:
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return default_catalog()


def _load_dataset_arg(args: argparse.Namespace) -> Dataset:
    return ingest.load_dataset(args.input, _load_catalog_arg(args))


def cmd_synth(args: argparse.Namespace) -> int:
    if args.paper_frequencies:
        frequencies = ingest.SURVEY_TYPE_COUNTS
    else:
        try:
            frequencies = json.loads(read_utf8(args.freq_file))
        except json.JSONDecodeError as exc:
            raise Error(f"invalid JSON in {args.freq_file}: {exc}") from None
    catalog = _load_catalog_arg(args)
    config = ingest.SynthConfig(seed=args.seed, frequencies=frequencies, catalog=catalog)
    dataset = ingest.generate_synthetic(config)
    _emit(ingest.dataset_to_csv(dataset), args.output)
    return 0


def _type_counts(dataset: Dataset) -> np.ndarray:
    """Respondents per type, in ``ALL_TYPES`` order."""
    return np.bincount(dataset.type_codes, minlength=len(ALL_TYPES))


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    present = np.count_nonzero(_type_counts(dataset))
    print(
        f"ok: {len(dataset)} records, {len(dataset.catalog)} genre columns, "
        f"{present} personality types"
    )
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    config = kmeans.KmeansConfig(k=args.k, init=args.init, seed=args.seed, restarts=args.restarts)
    X, method = dataset.feature_matrix(), args.init
    if args.pca_dims is not None:
        X, method = pca.project(pca.fit_pca(X, args.pca_dims), X), metrics.METHOD_PCA
    result = kmeans.fit(X, config)
    if args.format == "json":
        _emit(kmeans.result_to_json(result, method), args.output)
    else:
        _emit(kmeans.assignments_to_csv(result, dataset.respondent_ids), args.output)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    methods = args.method or list(metrics.ALL_METHODS)
    rows = metrics.run_method_comparison(
        dataset,
        k=args.k,
        methods=methods,
        categories=args.category,
        seed=args.seed,
        restarts=args.restarts,
    )
    if args.format == "json":
        metadata = {
            "k": args.k,
            "seed": args.seed,
            "restarts": args.restarts,
            "tol": kmeans.DEFAULT_TOL,
            "max_iters": kmeans.DEFAULT_MAX_ITERS,
            "silhouette_space": "clustering feature space (PCA-reduced for pca-based rows)",
        }
        _emit(metrics.comparison_to_json(rows, metadata), args.output)
    else:
        _emit(metrics.comparison_to_csv(rows), args.output)
    return 0


def cmd_pairtable(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    counts = analysis.pair_rating_table(dataset, args.type, args.genre_a, args.genre_b)
    _emit(analysis.pair_table_to_csv(counts, args.type, args.genre_a, args.genre_b), args.output)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    profiles = recommend.build_profiles(dataset)
    if args.user_row is not None:
        user = dataset.record(args.user_row)
        blend = recommend.DEFAULT_BLEND if args.blend is None else args.blend
        rec = recommend.recommend_for_user(profiles, user, top_n=args.top, blend_weight=blend)
    else:
        rec = recommend.recommend_for_type(profiles, args.type, top_n=args.top)
    if args.format == "json":
        _emit(recommend.recommendation_to_json(rec), args.output)
    else:
        _emit(recommend.recommendation_to_text(rec), args.output)
    return 0


def cmd_scatter(args: argparse.Namespace) -> int:
    dataset = _load_dataset_arg(args)
    X = dataset.feature_matrix()
    coords = pca.project(pca.fit_pca(X, args.dims), X)
    assignments = None
    if args.with_clusters:
        config = kmeans.KmeansConfig(k=args.k, seed=args.seed, restarts=args.restarts)
        assignments = kmeans.fit(coords, config).assignments
    types = args.types.split(",") if args.types else None
    _emit(analysis.scatter_to_csv(coords, dataset.type_codes, assignments, types), args.output)
    return 0


def cmd_freq(args: argparse.Namespace) -> int:
    """Total, introvert share and the four most frequent types, then every
    type's count by descending count, ties in alphabetical order."""
    counts = _type_counts(_load_dataset_arg(args)).tolist()
    total = sum(counts)
    if total == 0:
        raise Error("cannot summarize an empty frequency table")
    introverts = sum(c for t, c in zip(ALL_TYPES, counts) if t[0] == "i")
    ranked = sorted(zip(ALL_TYPES, counts), key=lambda tc: (-tc[1], tc[0]))
    lines = [f"# total={total}"]
    lines.append(f"# introvert_fraction={introverts / total:.6f}")
    lines.append("# top4=" + ",".join(t for t, _ in ranked[:4]))
    lines.append("mbti,count")
    lines.extend(f"{t},{count}" for t, count in ranked)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Personality-type media-preference analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_io(p: argparse.ArgumentParser, formats: tuple[str, ...] | None = None) -> None:
        p.add_argument("-o", "--output", metavar="PATH", help="output file (default stdout)")
        p.add_argument("--catalog", metavar="CSV", help="genre catalog file (default built-in)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("synth", help="generate a synthetic survey dataset")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--paper-frequencies",
        action="store_true",
        help="use the 1020-respondent reference frequency profile",
    )
    source.add_argument("--freq-file", metavar="JSON", help="type -> count JSON object")
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_common_io(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="check a dataset CSV against the catalog")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--catalog", metavar="CSV")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cluster", help="k-means cluster the rating matrix")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--k", type=_positive_int, default=16)
    p.add_argument("--init", choices=[kmeans.INIT_KMEANSPP, kmeans.INIT_RANDOM],
                   default=kmeans.INIT_KMEANSPP)
    p.add_argument("--pca-dims", type=_positive_int, default=None,
                   help="project with PCA to this many dimensions first")
    p.add_argument("--restarts", type=_positive_int, default=kmeans.DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_common_io(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score clustering methods per category")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--k", type=_positive_int, default=16)
    p.add_argument("--method", action="append",
                   choices=list(metrics.METHOD_NAMES),
                   help="repeatable; default: all three")
    p.add_argument("--category", action="append", metavar="NAME",
                   help="repeatable; default: all five")
    p.add_argument("--restarts", type=_positive_int, default=kmeans.DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_common_io(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pairtable", help="joint rating table for two genres")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--type", required=True, type=_mbti_arg)
    p.add_argument("--genre-a", required=True)
    p.add_argument("--genre-b", required=True)
    add_common_io(p)
    p.set_defaults(func=cmd_pairtable)

    p = sub.add_parser("recommend", help="rank genres for a type or respondent")
    p.add_argument("--input", required=True, metavar="CSV")
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--type", type=_mbti_arg)
    who.add_argument("--user-row", metavar="ID", help="respondent id to personalize for")
    p.add_argument("--blend", type=_blend_arg,
                   help=f"weight of the user's own ratings (0..1, default "
                        f"{recommend.DEFAULT_BLEND}); --user-row only")
    p.add_argument("--top", type=_positive_int, default=recommend.DEFAULT_TOP_N)
    add_common_io(p, formats=("text", "json"))
    p.set_defaults(func=cmd_recommend, usage_error=p.error)

    p = sub.add_parser("scatter", help="export PCA-projected points for plotting")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--dims", type=int, choices=(2, 3), default=2)
    p.add_argument("--with-clusters", action="store_true",
                   help="append cluster ids and centroid rows")
    p.add_argument("--k", type=_positive_int, default=16)
    p.add_argument("--restarts", type=_positive_int, default=kmeans.DEFAULT_RESTARTS)
    p.add_argument("--types", metavar="CODES",
                   help="comma-separated type codes to keep (centroids always kept)")
    p.add_argument("--seed", type=_seed_arg, default=0)
    add_common_io(p)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("freq", help="per-type respondent counts and skew summary")
    p.add_argument("--input", required=True, metavar="CSV")
    add_common_io(p)
    p.set_defaults(func=cmd_freq)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_recommend and args.blend is not None and args.user_row is None:
            args.usage_error("argument --blend: only allowed with argument --user-row")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (Error, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
