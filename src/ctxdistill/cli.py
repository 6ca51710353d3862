"""Command-line entry point.

Commands: ``segment``, ``distill``, ``compress``, ``export``, ``stats``.
Exit codes: 0 success, 2 usage/validation error (a bad instance file,
config, patch or corpus line, or an output file that cannot be written),
3 partial or degraded result (a batch instance failed, or an oracle
budget ran out), 4 external service failure.

In a batch, an instance whose endpoint fails is one failed instance.
Once ``ENDPOINT_FAILURE_LIMIT`` (2) instances in a row, in input order,
have failed at the endpoint, the batch stops with exit 4: an outage
would fail every instance.  No further instance starts, and no later
record is appended.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .code_model import segment_records
from .compressor import (
    CompressionBudget,
    HeuristicScorer,
    RemoteScorer,
    ScorerUnavailableError,
    compress,
)
from .config import ConfigError, RunConfig, load_run_config
from .dataset import (
    CorpusFormatError,
    ZeroPositivesError,
    append_corpus,
    compute_stats,
    load_corpus,
    write_triples,
)
from .instance import Instance, InstanceError, build_instance_tree, load_instance
from .oracle import OracleEndpointError
from .pipeline import distill_instance
from .priority import OutputError, writing

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_EXTERNAL = 4

# bad input: a usage error for one instance, a failed instance in a batch
_INPUT_ERRORS = (InstanceError, FileNotFoundError)
# endpoint failures in a row that stop a batch, as the module docstring says
ENDPOINT_FAILURE_LIMIT = 2


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
        config = dataclasses.replace(config, parallelism=args.parallelism)
    return config


def _cmd_segment(args, config: RunConfig) -> int:
    instance = load_instance(args.instance)
    tree = build_instance_tree(instance)
    with writing(args.out, "segment file") as out, open(out, "w", encoding="utf-8") as fh:
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

    trace_dir = None if args.no_trace else Path(config.paths.traces)

    # every instance loads first, in input order, so an id that repeats an
    # earlier one fails alike at any parallelism: its traces would overwrite
    # the first's, and the corpus could not be read back
    jobs: list[tuple[str, Instance | Exception]] = []
    first_paths: dict[str, str] = {}
    for path in paths:
        try:
            instance = load_instance(path)
        except _INPUT_ERRORS as exc:
            if not args.batch:
                raise
            jobs.append((path, exc))
            continue
        first = first_paths.setdefault(instance.instance_id, path)
        if first != path:
            error = InstanceError(f"instance_id {instance.instance_id!r} repeats {first}")
            jobs.append((path, error))
        else:
            jobs.append((instance.instance_id, instance))

    def run(job):
        """The instance's label and outcome.  In a batch the outcome may be
        the input or endpoint error that stopped the instance, a bad or
        repeating instance file's included, so one bad instance does not
        lose the others; an instance file that did not load is named by
        its path."""
        label, instance = job
        if isinstance(instance, Exception):
            return job
        try:
            return label, distill_instance(
                instance, config, oracle_kind=args.oracle, use_ga=not args.no_ga, trace_dir=trace_dir
            )
        except (*_INPUT_ERRORS, OracleEndpointError) as exc:
            if not args.batch:
                raise
            return label, exc

    # map yields in input order, so records append in instance order; a
    # serial run stays on this thread, so Ctrl-C or an error stops it at once
    partial = False
    endpoint_failures = 0  # in a row
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        serial = config.parallelism == 1 or len(paths) == 1
        for label, outcome in (map if serial else pool.map)(run, jobs):
            endpoint_failures = endpoint_failures + 1 if isinstance(outcome, OracleEndpointError) else 0
            if isinstance(outcome, Exception):
                print(f"{label}: failed: {outcome}")
                partial = True
                if endpoint_failures == ENDPOINT_FAILURE_LIMIT:
                    pool.shutdown(cancel_futures=True)
                    raise OracleEndpointError(
                        f"the endpoint failed for {endpoint_failures} instances in a row; batch stopped"
                    )
                continue
            record = outcome.record
            append_corpus(record, args.out)
            status = record.status + (" (budget exhausted)" if record.budget_exhausted else "")
            print(f"{label}: {status}")
            partial = partial or record.budget_exhausted
    return EXIT_PARTIAL if partial else EXIT_OK


def _cmd_compress(args, config: RunConfig) -> int:
    rate = args.rate if args.rate is not None else config.compression.rate
    try:
        CompressionBudget.from_rate(0, rate)  # from_rate owns the rate rule
    except ValueError as exc:
        print(f"error: --rate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    instance = load_instance(args.instance)
    tree = build_instance_tree(instance)
    scorer = HeuristicScorer(tree) if args.scorer == "heuristic" else RemoteScorer()
    result = compress(instance, tree, scorer, rate, window_cfg=config.compression)
    with writing(args.out, "compressed context") as out:
        out.write_text(result.rendered.dump_text(), encoding="utf-8")
    stats = json.dumps(result.stats(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    with writing(f"{args.out}.stats.json", "stats sidecar") as sidecar:
        sidecar.write_text(stats, encoding="utf-8")
    return EXIT_OK


def _cmd_export(args, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    write_triples(corpus, args.out)
    return EXIT_OK


def _cmd_stats(args, config: RunConfig) -> int:
    corpus = load_corpus(args.corpus)
    report = json.dumps(dataclasses.asdict(compute_stats(corpus)), indent=2, sort_keys=True) + "\n"
    with writing(args.out, "stats report") as out:
        out.write_text(report, encoding="utf-8")
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
    except (ConfigError, CorpusFormatError, OutputError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroPositivesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (OracleEndpointError, ScorerUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
