"""Command-line interface: regenerate the paper's experiments from a shell.

Usage (also via ``python -m repro``)::

    repro datasets                       # Table 3 dataset characteristics
    repro compare paper --setting 3w     # Figure 6/7/8 rows for one dataset
    repro sweep-epsilon restaurant       # Figure 5 series
    repro sweep-threshold paper          # Figure 10 series
    repro run product --method ACD       # one method, one dataset
    repro run paper --journal run.wal    # crash-safe: journal every batch
    repro run paper --journal run.wal --resume   # continue a killed run
    repro run paper --checkpoint-dir ck  # snapshot each completed phase
    repro run paper --checkpoint-dir ck --resume # skip finished phases
    repro run paper --trace run.trace.jsonl      # traced: spans + manifest
    repro trace summarize run.trace.jsonl        # inspect a finished trace
    repro trace validate run.trace.manifest.json # schema-check a manifest
    repro chaos --dataset restaurant     # pipelines under injected faults

Every command takes ``--scale`` (dataset size multiplier; 1.0 = Table 3
sizes) and ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.datasets.registry import dataset_names
from repro.experiments.runner import (
    ALL_METHODS,
    Instance,
    prepare_instance,
    run_comparison,
    run_method,
)
from repro.experiments.sweeps import epsilon_sweep, threshold_sweep
from repro.experiments.tables import (
    format_comparison,
    format_epsilon_sweep,
    format_table,
    format_threshold_sweep,
    table3_row,
)


def _shards_value(text: str):
    """argparse type for shard knobs: a non-negative int or 'auto'."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.3,
                        help="dataset size multiplier (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=1,
                        help="dataset/crowd seed")
    parser.add_argument("--parallel", type=int, default=0,
                        help="worker processes for the sharded prefix "
                             "join and, in 'run', for ACD's cluster "
                             "generation (<= 1 is serial; results are "
                             "identical)")
    parser.add_argument("--shards", type=_shards_value, default=0,
                        help="blocking-key shards for the prefix join "
                             "(0/1 = unsharded; identical output at any "
                             "shard count; 'auto' shards only large joins "
                             "with --parallel > 1)")


def _prepare(args: argparse.Namespace, obs=None, candidates=None) -> Instance:
    return prepare_instance(
        args.dataset, args.setting, scale=args.scale, seed=args.seed,
        parallel=args.parallel, shards=args.shards, obs=obs,
        candidates=candidates,
    )


def _add_setting(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--setting", choices=("3w", "5w"), default="3w",
                        help="crowd setting (workers per pair)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Crowd-Based Deduplication: "
                    "An Adaptive Approach' (SIGMOD 2015)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser(
        "datasets", help="Table 3: dataset characteristics and error rates"
    )
    _add_common(datasets)

    compare = commands.add_parser(
        "compare", help="Figure 6/7/8: compare all methods on one dataset"
    )
    compare.add_argument("dataset", choices=dataset_names())
    compare.add_argument("--repetitions", type=int, default=3)
    _add_setting(compare)
    _add_common(compare)

    sweep_eps = commands.add_parser(
        "sweep-epsilon", help="Figure 5: PC-Pivot's ε trade-off"
    )
    sweep_eps.add_argument("dataset", choices=dataset_names())
    sweep_eps.add_argument("--repetitions", type=int, default=3)
    _add_setting(sweep_eps)
    _add_common(sweep_eps)

    sweep_t = commands.add_parser(
        "sweep-threshold", help="Figure 10: PC-Refine's budget T"
    )
    sweep_t.add_argument("dataset", choices=dataset_names())
    sweep_t.add_argument("--repetitions", type=int, default=3)
    _add_setting(sweep_t)
    _add_common(sweep_t)

    run = commands.add_parser("run", help="run a single method")
    run.add_argument("dataset", choices=dataset_names())
    run.add_argument("--method", choices=ALL_METHODS, default="ACD")
    run.add_argument("--method-seed", type=int, default=7)
    run.add_argument("--journal", default=None, metavar="PATH",
                     help="write-ahead journal: durably record every crowd "
                          "batch so a killed run can be resumed")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="phase-level checkpoints: atomically snapshot "
                          "the candidate set after pruning, the cluster "
                          "state after generation, and the finished "
                          "pipeline after refinement, so --resume "
                          "restarts from the last completed phase")
    run.add_argument("--resume", action="store_true",
                     help="continue a previous run from its --journal "
                          "and/or --checkpoint-dir (replays journaled "
                          "batches at no crowd cost and skips "
                          "checkpointed phases)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="stream a JSONL trace of every span and event to "
                          "PATH and write a run manifest next to it")
    run.add_argument("--manifest", default=None, metavar="PATH",
                     help="override the manifest path (default: derived "
                          "from --trace)")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="also write the result metrics as JSON to PATH")
    _add_setting(run)
    _add_common(run)

    trace = commands.add_parser(
        "trace", help="inspect observability artifacts from --trace runs"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize", help="span/event/crowd-round totals of a JSONL trace"
    )
    summarize.add_argument("path", metavar="TRACE")
    validate = trace_commands.add_parser(
        "validate", help="check a run manifest against the schema"
    )
    validate.add_argument("path", metavar="MANIFEST")

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection suite: every pipeline under an adversarial "
             "crowd (abandonment, timeouts, spammers, outage-free default)",
    )
    chaos.add_argument("--dataset", choices=dataset_names(),
                       default="restaurant")
    chaos.add_argument("--scale", type=float, default=0.1,
                       help="dataset size multiplier (keep small)")
    chaos.add_argument("--seeds", type=int, default=3,
                       help="number of seeds to sweep (0..N-1)")
    chaos.add_argument("--runtime-records", type=int, default=10_000,
                       help="record count of the sharded-pruning tier the "
                            "process-fault matrix (worker kills, delays, "
                            "poison chunks) runs at")
    chaos.add_argument("--no-runtime", action="store_true",
                       help="skip the process-fault matrix and the "
                            "checkpoint kill-resume checks (crowd-side "
                            "faults only)")
    chaos.add_argument("--output", default=None, metavar="PATH",
                       help="write the JSON summary to a file "
                            "(default: stdout)")

    report = commands.add_parser(
        "report", help="full markdown report for one dataset"
    )
    report.add_argument("dataset", choices=dataset_names())
    report.add_argument("--repetitions", type=int, default=3)
    report.add_argument("--no-sweeps", action="store_true",
                        help="skip the ε and T sweeps (faster)")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    _add_setting(report)
    _add_common(report)

    replicate = commands.add_parser(
        "replicate",
        help="run the paper's entire evaluation and emit one report",
    )
    replicate.add_argument("--repetitions", type=int, default=3)
    replicate.add_argument("--no-sweeps", action="store_true")
    replicate.add_argument("--output", default=None,
                           help="write to a file instead of stdout")
    _add_common(replicate)

    return parser


def _cmd_datasets(args: argparse.Namespace) -> None:
    rows = []
    for name in dataset_names():
        row = table3_row(name, scale=args.scale, seed=args.seed)
        rows.append([
            name,
            f"{row['records']:.0f}",
            f"{row['entities']:.0f}",
            f"{row['candidate_pairs']:.0f}",
            f"{row['error_3w']:.1%}",
            f"{row['error_5w']:.1%}",
        ])
    print(format_table(
        ["dataset", "records", "entities", "candidate pairs",
         "error 3w", "error 5w"],
        rows,
    ))


def _cmd_compare(args: argparse.Namespace) -> None:
    instance = _prepare(args)
    results = run_comparison(instance, repetitions=args.repetitions)
    print(format_comparison(results))


def _cmd_sweep_epsilon(args: argparse.Namespace) -> None:
    instance = _prepare(args)
    print(format_epsilon_sweep(
        epsilon_sweep(instance, repetitions=args.repetitions)
    ))


def _cmd_sweep_threshold(args: argparse.Namespace) -> None:
    instance = _prepare(args)
    print(format_threshold_sweep(
        threshold_sweep(instance, repetitions=args.repetitions)
    ))


def _check_run_paths(args: argparse.Namespace) -> Optional[Path]:
    """Fail fast on invalid flag combinations before any work runs.

    Returns the resolved manifest path (``None`` when not tracing).  Every
    artifact must land in a distinct file — a journal silently overwritten
    by the trace stream (or vice versa) is unrecoverable.
    """
    if args.resume and not (args.journal or args.checkpoint_dir):
        raise SystemExit(
            "--resume requires --journal PATH and/or --checkpoint-dir DIR"
        )
    if args.manifest and not args.trace:
        raise SystemExit("--manifest requires --trace PATH")
    manifest_path: Optional[Path] = None
    if args.trace:
        from repro.obs import default_manifest_path
        manifest_path = (Path(args.manifest) if args.manifest
                         else default_manifest_path(args.trace))
    claimed = {}
    for flag, value in (
        ("--journal", args.journal),
        ("--trace", args.trace),
        ("--manifest", manifest_path),
        ("--output", args.output),
    ):
        if value is None:
            continue
        resolved = Path(value).resolve()
        if resolved in claimed:
            raise SystemExit(
                f"{claimed[resolved]} and {flag} point at the same file "
                f"({value}); every artifact needs its own path"
            )
        claimed[resolved] = flag
    return manifest_path


def _result_rollup(result) -> dict:
    return {
        "method": result.method,
        "f1": result.f1,
        "precision": result.precision,
        "recall": result.recall,
        "pairs_issued": result.pairs_issued,
        "iterations": result.iterations,
        "hits": result.hits,
        "num_clusters": result.num_clusters,
    }


def _finalize_cli_manifest(obs, run_config: dict, seeds: dict,
                           result) -> None:
    """Write (or amend) the run manifest with the measured result.

    ACD / PC-Pivot runs already wrote a manifest from inside ``run_acd``;
    this reloads it and adds the F1 rollup.  Baseline methods never enter
    ``run_acd``, so their manifest is assembled here from the same
    observability state.
    """
    from repro.obs import build_manifest, load_manifest, write_manifest
    obs.flush()
    rollup = _result_rollup(result)
    if obs.manifest_path.exists():
        manifest = load_manifest(obs.manifest_path)
        manifest["result"] = rollup
        manifest["metrics"] = obs.metrics.as_dict()
        manifest["spans"] = obs.tracer.span_summaries()
    else:
        manifest = build_manifest(
            command="run",
            config=run_config,
            seeds=seeds,
            stats={"pairs_issued": result.pairs_issued,
                   "iterations": result.iterations,
                   "hits": result.hits},
            metrics=obs.metrics.as_dict(),
            spans=obs.tracer.span_summaries(),
            dataset=obs.manifest_extra.get("dataset"),
            result=rollup,
            trace_path=obs.trace_path,
        )
    write_manifest(obs.manifest_path, manifest)


def _cmd_run(args: argparse.Namespace) -> None:
    manifest_path = _check_run_paths(args)
    # Checkpoints and journals are fingerprinted with the keys that change
    # results only, so a run resumes under any worker or shard count.
    result_config = {
        "dataset": args.dataset,
        "setting": args.setting,
        "scale": args.scale,
        "seed": args.seed,
        "method": args.method,
        "method_seed": args.method_seed,
    }
    run_config = {**result_config, "parallel": args.parallel,
                  "shards": args.shards}
    seeds = {"dataset_seed": args.seed, "method_seed": args.method_seed}

    obs = None
    if args.trace:
        from repro.obs import ObsContext, dataset_fingerprint
        obs = ObsContext.to_path(args.trace, manifest_path=manifest_path)

    checkpoints = None
    restored_candidates = None
    if args.checkpoint_dir:
        from repro.runtime.checkpoint import (
            CheckpointStore,
            candidate_state,
            restore_candidates,
        )
        try:
            checkpoints = CheckpointStore(args.checkpoint_dir,
                                          config=result_config)
            if args.resume:
                payload = checkpoints.load("pruning")
                if payload is not None:
                    restored_candidates = restore_candidates(payload)
        except ValueError as error:
            raise SystemExit(str(error))

    instance = _prepare(args, obs=obs, candidates=restored_candidates)
    if checkpoints is not None:
        if restored_candidates is not None:
            print(f"resumed pruning checkpoint: "
                  f"{len(restored_candidates)} candidate pairs "
                  f"(pruning not re-executed)")
        else:
            checkpoints.save("pruning",
                             candidate_state(instance.candidates))
    if obs is not None:
        obs.manifest_extra.update(
            command="run", config=run_config, seeds=seeds,
            dataset=dataset_fingerprint(instance.dataset),
        )

    journaled = None
    if args.journal:
        from repro.crowd.persistence import JournalingAnswerFile
        journal_path = Path(args.journal)
        if (journal_path.exists() and journal_path.stat().st_size > 0
                and not args.resume):
            raise SystemExit(
                f"journal {journal_path} already exists; pass --resume to "
                "continue it or choose a fresh path"
            )
        try:
            journaled = JournalingAnswerFile(instance.answers, journal_path,
                                             config=result_config)
        except ValueError as error:
            raise SystemExit(str(error))
        if args.resume:
            print(f"resuming from {journal_path}: "
                  f"{journaled.resumed_answers} answers on record")
        instance = dataclasses.replace(instance, answers=journaled)
    gcer_budget = None
    if args.method == "GCER":
        # Budget probe: untraced on purpose, so the trace and manifest
        # describe only the GCER run itself.
        acd = run_method("ACD", instance, seed=args.method_seed)
        gcer_budget = int(acd.pairs_issued)
    try:
        result = run_method(args.method, instance, seed=args.method_seed,
                            gcer_budget=gcer_budget, obs=obs,
                            checkpoints=checkpoints, resume=args.resume,
                            workers=args.parallel)
    finally:
        if journaled is not None:
            journaled.close()
    if obs is not None:
        _finalize_cli_manifest(obs, run_config, seeds, result)
        obs.close()
        print(f"trace: {obs.trace_path}\nmanifest: {obs.manifest_path}")
    if args.output:
        payload = {"config": run_config, "result": _result_rollup(result)}
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    print(format_table(
        ["metric", "value"],
        [
            ["method", result.method],
            ["F1", f"{result.f1:.3f}"],
            ["precision", f"{result.precision:.3f}"],
            ["recall", f"{result.recall:.3f}"],
            ["pairs crowdsourced", f"{result.pairs_issued:.0f}"],
            ["crowd iterations", f"{result.iterations:.0f}"],
            ["HITs", f"{result.hits:.0f}"],
            ["clusters", f"{result.num_clusters:.0f}"],
        ],
    ))


def _cmd_trace(args: argparse.Namespace) -> None:
    if args.trace_command == "summarize":
        from repro.obs import format_trace_summary, summarize_trace
        try:
            summary = summarize_trace(args.path)
        except (OSError, ValueError) as error:
            raise SystemExit(str(error))
        print(format_trace_summary(summary))
    else:  # validate
        from repro.obs import load_manifest
        try:
            manifest = load_manifest(args.path)
        except OSError as error:
            raise SystemExit(str(error))
        except ValueError as error:
            raise SystemExit(str(error))
        print(f"{args.path}: valid manifest "
              f"(schema v{manifest['schema_version']}, "
              f"command {manifest['command']!r})")


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.report import full_report_for_instance
    instance = _prepare(args)
    text = full_report_for_instance(
        instance, repetitions=args.repetitions,
        include_sweeps=not args.no_sweeps,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)


def _cmd_replicate(args: argparse.Namespace) -> None:
    import sys as _sys
    from repro.experiments.replication import replicate
    text = replicate(
        scale=args.scale, seed=args.seed, repetitions=args.repetitions,
        include_sweeps=not args.no_sweeps,
        progress=lambda line: print(f"  ... {line}", file=_sys.stderr),
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)


def _cmd_chaos(args: argparse.Namespace) -> None:
    from repro.experiments.chaos import run_chaos_suite
    summary = run_chaos_suite(
        dataset_name=args.dataset, scale=args.scale,
        seeds=range(args.seeds),
        include_runtime=not args.no_runtime,
        runtime_records=args.runtime_records,
    )
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if not summary["all_completed"]:
        raise SystemExit("chaos suite: not every pipeline completed")


_COMMANDS = {
    "datasets": _cmd_datasets,
    "compare": _cmd_compare,
    "sweep-epsilon": _cmd_sweep_epsilon,
    "sweep-threshold": _cmd_sweep_threshold,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
    "replicate": _cmd_replicate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
