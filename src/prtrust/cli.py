"""Command-line interface: fetch, sample, analyze, summary.

Exit codes: 0 success, 1 validation/config/usage error, 2 network error,
3 insufficient sampling stratum. Only `fetch` touches the network;
everything downstream runs offline from snapshot files.
"""

from __future__ import annotations

import argparse
import sys

from .aggregate import SamplePlan, analyze_snapshot, stratified_sample
from .config import AnalysisConfig, config_echo, load_config
from .corpus import load_snapshot, restrict, save_snapshot
from .errors import ConfigError, FetchError, InsufficientStratumError, SnapshotError
from .ingest import FetchPlan, fetch_snapshot
from .report import FORMATS, build_bundle, emit, load_bundle, markdown_summary


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="prtrust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="fetch a repository snapshot from GitHub")
    fetch.add_argument("--repo", required=True, metavar="OWNER/NAME")
    fetch.add_argument("--max-pulls", required=True, type=int)
    fetch.add_argument("--include-open", action="store_true")
    fetch.add_argument("--out", required=True)
    fetch.add_argument("--cache", default=None, metavar="DIR")

    sample = sub.add_parser("sample", help="write a snapshot restricted to a stratified sample")
    sample.add_argument("--in", dest="input", required=True, metavar="SNAPSHOT")
    sample.add_argument("--n", type=int, default=None)
    sample.add_argument("--accept-ratio", type=float, default=None)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--config", default=None)
    sample.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="score every PR and write a report")
    analyze.add_argument("--in", dest="input", required=True, metavar="SNAPSHOT")
    analyze.add_argument("--config", default=None)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--format", required=True, choices=FORMATS)

    summary = sub.add_parser("summary", help="print the markdown summary of a JSON report")
    summary.add_argument("--in", dest="input", required=True, metavar="REPORT.json")

    return parser


def _load_cli_config(path: str | None) -> AnalysisConfig:
    return load_config(path) if path is not None else AnalysisConfig()


def _cmd_fetch(args) -> int:
    owner, _, name = args.repo.partition("/")
    if not owner or not name or "/" in name:
        raise _UsageError(f"--repo must look like owner/name, got {args.repo!r}")
    plan = FetchPlan(
        repo_owner=owner,
        repo_name=name,
        max_pulls=args.max_pulls,
        include_open=args.include_open,
        cache_dir=args.cache,
    )
    snapshot = fetch_snapshot(plan)
    save_snapshot(snapshot, args.out)
    print(f"wrote {len(snapshot.pulls)} PRs to {args.out}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    config = _load_cli_config(args.config)
    plan = SamplePlan(
        per_repo_n=args.n if args.n is not None else config.per_repo_n,
        accept_ratio=args.accept_ratio if args.accept_ratio is not None else config.accept_ratio,
        seed=args.seed if args.seed is not None else config.seed,
    )
    snapshot = load_snapshot(args.input)
    numbers = stratified_sample(snapshot, plan)
    save_snapshot(restrict(snapshot, numbers), args.out)
    print(f"sampled PRs {numbers} into {args.out}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    config = _load_cli_config(args.config)
    lexicon = config.load_lexicon()
    snapshot = load_snapshot(args.input)
    profiles, summary = analyze_snapshot(snapshot, config, lexicon)
    bundle = build_bundle(snapshot, profiles, summary, config_echo(config, lexicon))
    emit(bundle, args.format, args.out)
    print(f"wrote {args.format} report for {len(profiles)} PRs to {args.out}", file=sys.stderr)
    return 0


def _cmd_summary(args) -> int:
    bundle = load_bundle(args.input)
    sys.stdout.write(markdown_summary(bundle))
    return 0


_COMMANDS = {
    "fetch": _cmd_fetch,
    "sample": _cmd_sample,
    "analyze": _cmd_analyze,
    "summary": _cmd_summary,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"prtrust: error: {exc}", file=sys.stderr)
        return 1
    except InsufficientStratumError as exc:
        print(f"prtrust: {exc}", file=sys.stderr)
        return 3
    except FetchError as exc:
        print(f"prtrust: {exc}", file=sys.stderr)
        return 2
    except (SnapshotError, ConfigError, ValueError, OSError) as exc:
        print(f"prtrust: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
