"""Command-line entry point.

Commands: ``segment``, ``distill``, ``compress``, ``export``, ``stats``.
Exit codes: 0 success, 2 usage/validation error, 3 partial or degraded
result, 4 external service failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .code_model import segment_records
from .compressor import (
    HeuristicScorer,
    RemoteScorer,
    ScorerUnavailableError,
    compress,
)
from .config import ConfigError, RunConfig, load_run_config
from .dataset import (
    ZeroPositivesError,
    compute_stats,
    load_corpus,
    save_corpus,
    write_triples,
)
from .instance import InstanceError, build_instance_tree, load_instance
from .oracle import OracleEndpointError
from .pipeline import distill_instance
from .priority import PatchFormatError
from .tokens import get_counter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_EXTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxdistill",
        description="Distill minimal sufficient code contexts and compress contexts under a token budget.",
    )
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="override the search RNG seed")
    parser.add_argument("--parallelism", type=int, help="parallel instances in batch mode")
    parser.add_argument("--no-trace", action="store_true", help="skip writing trace files")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value, e.g. --set ga.population_size=30",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="dump leaf segments for an instance")
    p_segment.add_argument("instance")
    p_segment.add_argument("--out", required=True)

    p_distill = sub.add_parser("distill", help="distill an instance (or a batch directory)")
    p_distill.add_argument("instance", nargs="?")
    p_distill.add_argument("--batch", help="directory of instance JSON files")
    p_distill.add_argument("--oracle", choices=("mock", "llm"), default="mock")
    p_distill.add_argument("--out", required=True, help="corpus JSONL to append to")
    p_distill.add_argument(
        "--no-ga",
        action="store_true",
        help="skip the search phase and minimize the initial context directly",
    )

    p_compress = sub.add_parser("compress", help="compress an instance's context")
    p_compress.add_argument("instance")
    p_compress.add_argument("--rate", type=float, default=None)
    p_compress.add_argument("--scorer", choices=("heuristic", "remote"), default="heuristic")
    p_compress.add_argument("--out", required=True)

    p_export = sub.add_parser("export", help="export weighted training triples")
    p_export.add_argument("corpus")
    p_export.add_argument("--out", required=True)

    p_stats = sub.add_parser("stats", help="corpus statistics report")
    p_stats.add_argument("corpus")
    p_stats.add_argument("--out", required=True)

    return parser


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config, args.overrides, args.seed)
    if args.parallelism is not None:
        if args.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        config = RunConfig(
            weights=config.weights,
            ga=config.ga,
            oracle=config.oracle,
            compression=config.compression,
            parallelism=args.parallelism,
            paths=config.paths,
        )
    return config


def _cmd_segment(args, config: RunConfig) -> int:
    instance = load_instance(args.instance)
    tree = build_instance_tree(instance)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for row in segment_records(tree):
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_distill(args, config: RunConfig) -> int:
    if bool(args.instance) == bool(args.batch):
        print("distill needs exactly one of INSTANCE or --batch", file=sys.stderr)
        return EXIT_USAGE

    paths: list[str]
    if args.batch:
        batch_dir = Path(args.batch)
        if not batch_dir.is_dir():
            print(f"batch directory not found: {batch_dir}", file=sys.stderr)
            return EXIT_USAGE
        paths = sorted(str(p) for p in batch_dir.glob("*.json"))
    else:
        paths = [args.instance]

    # records append in instance order regardless of completion order
    results: list[tuple[str, bool, bool]] = []
    records = []
    budget_hit = False
    if config.parallelism > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            futures = []
            for p in paths:
                instance = load_instance(p)
                trace_dir = None if args.no_trace else Path(config.paths.traces)
                futures.append(
                    pool.submit(
                        distill_instance,
                        instance,
                        config,
                        oracle_kind=args.oracle,
                        use_ga=not args.no_ga,
                        trace_dir=trace_dir,
                    )
                )
            for p, fut in zip(paths, futures):
                outcome = fut.result()
                records.append(outcome.record)
                results.append(
                    (outcome.record.instance_id, outcome.record.status == "minimized", outcome.budget_exhausted)
                )
                budget_hit = budget_hit or outcome.budget_exhausted
    else:
        for p in paths:
            instance = load_instance(p)
            trace_dir = None if args.no_trace else Path(config.paths.traces)
            outcome = distill_instance(
                instance,
                config,
                oracle_kind=args.oracle,
                use_ga=not args.no_ga,
                trace_dir=trace_dir,
            )
            records.append(outcome.record)
            results.append(
                (outcome.record.instance_id, outcome.record.status == "minimized", outcome.budget_exhausted)
            )
            budget_hit = budget_hit or outcome.budget_exhausted

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")

    for instance_id, minimized, exhausted in results:
        status = "minimized" if minimized else "unminimized"
        if exhausted:
            status += " (budget exhausted)"
        print(f"{instance_id}: {status}")
    return EXIT_PARTIAL if budget_hit else EXIT_OK


def _cmd_compress(args, config: RunConfig) -> int:
    rate = args.rate if args.rate is not None else config.compression.rate
    if rate <= 1:
        print("compression rate must be > 1", file=sys.stderr)
        return EXIT_USAGE
    instance = load_instance(args.instance)
    tree = build_instance_tree(instance)
    scorer = HeuristicScorer(tree) if args.scorer == "heuristic" else RemoteScorer()
    counter = get_counter(config.compression.token_counter)
    result = compress(
        instance,
        tree,
        scorer,
        rate,
        window_cfg=config.compression.window_config(),
        counter=counter,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(result.rendered.dump_text(), encoding="utf-8")
    Path(str(out) + ".stats.json").write_text(
        json.dumps(result.stats(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def _cmd_export(args, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    write_triples(corpus, args.out)
    return EXIT_OK


def _cmd_stats(args, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "segment": _cmd_segment,
    "distill": _cmd_distill,
    "compress": _cmd_compress,
    "export": _cmd_export,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except (ConfigError, InstanceError, PatchFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroPositivesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (OracleEndpointError, ScorerUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
