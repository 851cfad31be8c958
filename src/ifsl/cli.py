"""Command-line interface.

Subcommands: ``episodes`` (evaluate few-shot episodes from feature files),
``hardness`` (same with hardness-binned reporting), ``synth`` (generate a
confounded dataset and run a baseline/adjusted comparison), ``scm`` (graph
queries), ``meta`` (meta-train and evaluate a head initialization).

Exit codes: 0 success, 1 runtime error, 2 configuration error, 3 file-format
error. Reports are JSON with sorted keys; everything outside the ``meta``
field is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjust import STRATEGIES, AdjustmentConfig, Predictor
from .causal_graph import (
    backdoor_admissible,
    builtin_graph,
    d_separated,
    graph_from_json,
    is_instrumental,
    rule_condition,
)
from .episodes import _check_count, _check_shape, run_arms, run_many
from .heads import FitConfig
from .knowledge import (
    FormatError,
    PartitionConfig,
    _write,
    feature_parts,
    kb_parts,
    load_features,
    load_features_csv,
    load_kb,
)
from .meta import evaluate_inits, meta_bytes, meta_train, save_meta, zero_meta_init
from .evalmetrics import (
    Report,
    accuracy_report,
    bins_to_csv_rows,
    check_bins,
    hardness_report,
    mean_ci,
    with_bins,
)
from .synth import SynthConfig, _ConfoundedSampler, gen_confounded

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "mean_acc", "ci95", "episodes", "hardness_bins", "meta"],
    "properties": {
        "config": {"type": "object"},
        "mean_acc": {"type": "number"},
        "ci95": {"type": "number"},
        "episodes": {"type": "integer", "minimum": 1},
        "hardness_bins": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lo", "hi", "count", "acc"],
                "properties": {
                    "lo": {"type": "number"},
                    "hi": {"type": "number"},
                    "count": {"type": "integer", "minimum": 1},
                    "acc": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
        "meta": {
            "type": "object",
            "required": ["duration_s", "version"],
            "properties": {
                "duration_s": {"type": "number"},
                "version": {"type": "string"},
            },
        },
    },
}


def _load_features_any(path: str):
    if str(path).endswith(".csv"):
        return load_features_csv(path)
    return load_features(path)


def _adjustment(args) -> AdjustmentConfig:
    return AdjustmentConfig(
        strategy=args.adjust,
        partition=PartitionConfig(n=args.strata, t=args.threshold),
    )


def _fit_config(args, adjusted: bool) -> FitConfig:
    """The fit flags; ``--lr`` defaults to 1e-2 for an unadjusted head and 5e-3 otherwise."""
    lr = (5e-3 if adjusted else 1e-2) if args.lr is None else args.lr
    return FitConfig(args.iterations, args.batch_size, lr, args.weight_decay, args.seed)


def _report_doc(config: dict, rep: Report, duration: float) -> dict:
    return {
        "config": config,
        "mean_acc": rep.mean_acc,
        "ci95": rep.ci95,
        "episodes": rep.episodes,
        "hardness_bins": [
            {"lo": b.lo, "hi": b.hi, "count": b.count, "acc": b.acc}
            for b in rep.hardness_bins
        ],
        "meta": {"duration_s": duration, "version": __version__},
    }


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_query_csv(path: str, results) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "query", "true", "predicted", "correct", "hardness"])
        for e, r in enumerate(results):
            for q in range(r.true.size):
                writer.writerow(
                    [e, q, int(r.true[q]), int(r.predicted[q]), int(r.correct[q]), repr(float(r.hardness[q]))]
                )


def _task_flags(p: argparse.ArgumentParser) -> None:
    """Episode shape, adjustment and seed: the flags of every command that draws tasks."""
    p.add_argument("--way", type=int, default=5, help="classes per episode")
    p.add_argument("--shot", type=int, default=1, help="support samples per class")
    p.add_argument("--query", type=int, default=15, help="query samples per class")
    p.add_argument("--adjust", choices=STRATEGIES, default="none")
    p.add_argument("--strata", "--n", type=int, default=8, help="feature strata for adjustment")
    p.add_argument("--threshold", "--t", type=float, default=1e-3, help="activation threshold")
    p.add_argument("--seed", type=int, default=0)


def _episode_flags(p: argparse.ArgumentParser, default_episodes: int = 2000) -> None:
    """The task flags, the episode count and the head's fit, for the commands that evaluate."""
    _task_flags(p)
    p.add_argument("--episodes", type=int, default=default_episodes, help="episode count")
    p.add_argument(
        "--classifier", choices=("linear", "cosine", "centroid"), default="linear"
    )
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument(
        "--lr", type=float, default=None,
        help="learning rate (default 1e-2 unadjusted, 5e-3 adjusted)",
    )
    p.add_argument("--weight-decay", type=float, default=1e-3)


def cmd_episodes(args) -> int:
    started = time.perf_counter()
    # every check that needs no data comes before the files are read
    adj = _adjustment(args)
    fit_cfg = _fit_config(args, args.adjust != "none")
    _check_count(args.episodes)
    _check_shape(None, args.way, args.shot, args.query)
    hardness = args.bins is not None  # ``ifsl hardness``; ``episodes`` sets no bins
    if hardness:
        check_bins(args.episodes * args.way * args.query, args.bins)
    ds = _load_features_any(args.features)
    kb = load_kb(args.kb)
    results = run_many(
        ds, args.way, args.shot, args.query, args.episodes, args.classifier,
        adj, fit_cfg, kb, args.seed,
    )
    rep = accuracy_report(results)
    if hardness:
        rep = with_bins(rep, hardness_report(results, args.bins))
    config = {
        "command": "hardness" if hardness else "episodes",
        "features": str(args.features),
        "kb": str(args.kb),
        "way": args.way,
        "shot": args.shot,
        "query": args.query,
        "episodes": args.episodes,
        "classifier": args.classifier,
        "adjust": args.adjust,
        "strata": args.strata,
        "threshold": args.threshold,
        "iterations": args.iterations,
        "batch_size": args.batch_size,
        "lr": fit_cfg.learning_rate,
        "weight_decay": args.weight_decay,
        "seed": args.seed,
    }
    if hardness:
        config["bins"] = args.bins
    doc = _report_doc(config, rep, time.perf_counter() - started)
    if args.query_csv:
        _write_query_csv(args.query_csv, results)
    if args.bins_csv:
        with open(args.bins_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(bins_to_csv_rows(rep.hardness_bins))
    _emit(doc, args.out)
    if args.out is not None:
        print(f"mean_acc={rep.mean_acc:.2f} ci95={rep.ci95:.2f} episodes={rep.episodes}")
    return 0


def _parse_nodes(text: str | None) -> list[str]:
    if not text:
        return []
    return [t.strip() for t in text.split(",") if t.strip()]


def _graph_of(args):
    if args.graph_file:
        return graph_from_json(Path(args.graph_file).read_text())
    return builtin_graph(args.graph)


def cmd_scm(args) -> int:
    g = _graph_of(args)
    query: dict = {"graph": args.graph_file or args.graph, "check": args.scm_command}
    if args.scm_command == "dsep":
        x, y, z = _parse_nodes(args.x), _parse_nodes(args.y), _parse_nodes(args.z)
        result = d_separated(g, x, y, z)
        query.update({"x": x, "y": y, "z": z})
        verdict = (
            f"{sorted(x)} and {sorted(y)} are "
            f"{'d-separated' if result else 'NOT d-separated'} given {sorted(z)}"
        )
    elif args.scm_command == "iv":
        result = is_instrumental(g, args.instrument, args.treatment, args.outcome)
        query.update(
            {"instrument": args.instrument, "treatment": args.treatment, "outcome": args.outcome}
        )
        verdict = (
            f"{args.instrument} {'is' if result else 'is NOT'} an instrument for "
            f"{args.treatment} -> {args.outcome}"
        )
    elif args.scm_command == "rule":
        x, y, z, w = (_parse_nodes(v) for v in (args.x, args.y, args.z, args.w))
        result = rule_condition(g, args.rule, x, y, z, w)
        query.update({"rule": args.rule, "x": x, "y": y, "z": z, "w": w})
        verdict = f"rule {args.rule} condition {'holds' if result else 'does NOT hold'}"
    else:
        z = _parse_nodes(args.z)
        result = backdoor_admissible(g, z, args.treatment, args.outcome)
        query.update({"z": z, "treatment": args.treatment, "outcome": args.outcome})
        verdict = (
            f"{sorted(z)} {'is' if result else 'is NOT'} backdoor-admissible for "
            f"{args.treatment} -> {args.outcome}"
        )
    print(verdict)
    _emit({"query": query, "result": bool(result)}, args.out)
    return 0


def cmd_synth(args) -> int:
    started = time.perf_counter()
    cfg = SynthConfig(
        dim=args.dim,
        pretrain_classes=args.pretrain_classes,
        novel_classes=args.novel_classes,
        strata=args.conf_strata,
        beta=args.beta,
        sigma=args.sigma,
        samples_per_class=args.samples_per_class,
        mismatch_rate=args.mismatch,
        seed=args.seed,
    )
    # every check that needs no data comes before the dataset is generated and written
    adj = _adjustment(args)
    base_fit, adj_fit = _fit_config(args, False), _fit_config(args, True)
    _check_count(args.episodes)
    if args.bins < 0:
        raise ValueError(f"bin count must be >= 1, or 0 for no bins, got {args.bins}")
    if args.bins:
        check_bins(args.episodes * args.way * args.query, args.bins)
    _check_shape(cfg.novel_classes, args.way, args.shot, args.query)
    if adj.strategy in ("feature", "combined"):
        adj.partition.validate_dim(cfg.dim)
    out = gen_confounded(cfg)
    sidecar = {
        "config": dataclasses.asdict(cfg),
        "class_dirs": out.class_dirs.tolist(),
        "conf_dirs": out.conf_dirs.tolist(),
        "mixtures": out.mixtures.tolist(),
        "novel_strata": out.novel_strata.tolist(),
    }
    sample = _ConfoundedSampler(out.novel, out.novel_strata,
                                args.way, args.shot, args.query, args.mismatch)
    # before out.kb fits the knowledge base, so a cell too small for any
    # episode is refused without that fit
    sample.check_cells(args.seed, args.episodes)
    arms = [(args.classifier, AdjustmentConfig("none"), base_fit), (args.classifier, adj, adj_fit)]
    (base_results, adj_results), _ = run_arms(sample, arms, out.kb, args.episodes, args.seed)
    # encoded once every episode has run, and written once all are encoded: a
    # cell too small for an episode, or a value beyond f32, is a config error
    # that leaves no half-written --out-dir
    files = {"pretrain.features": feature_parts(out.pretrain),
             "novel.features": feature_parts(out.novel), "kb.bin": kb_parts(out.kb),
             "synth.json": [(json.dumps(sidecar, sort_keys=True) + "\n").encode()]}
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, parts in files.items():
        _write(outdir / fname, parts)
    base_rep = accuracy_report(base_results)
    adj_rep = accuracy_report(adj_results)
    if args.bins:
        base_rep = with_bins(base_rep, hardness_report(base_results, args.bins))
        adj_rep = with_bins(adj_rep, hardness_report(adj_results, args.bins))
    gap, gap_ci = mean_ci(
        [100.0 * (a.accuracy - b.accuracy) for a, b in zip(adj_results, base_results)]
    )
    duration = time.perf_counter() - started
    base_doc = _report_doc({"adjust": "none"}, base_rep, duration)
    adj_doc = _report_doc({"adjust": args.adjust}, adj_rep, duration)
    # sub-reports must not carry their own timing: determinism checks exclude
    # only the top-level meta field
    del base_doc["meta"], adj_doc["meta"]
    doc = {
        "config": {**sidecar["config"], "command": "synth", "way": args.way,
                   "shot": args.shot, "query": args.query, "episodes": args.episodes,
                   "classifier": args.classifier, "adjust": args.adjust,
                   "adjust_strata": args.strata, "threshold": args.threshold,
                   "iterations": args.iterations, "batch_size": args.batch_size,
                   "weight_decay": args.weight_decay, "bins": args.bins},
        "baseline": base_doc,
        "adjusted": adj_doc,
        "gap": gap,
        "gap_ci95": gap_ci,
        "meta": {"duration_s": duration, "version": __version__},
    }
    _emit(doc, args.out)
    if args.out is not None:
        print(
            f"baseline={base_rep.mean_acc:.2f}±{base_rep.ci95:.2f} "
            f"adjusted={adj_rep.mean_acc:.2f}±{adj_rep.ci95:.2f} "
            f"gap={gap:.2f}±{gap_ci:.2f}"
        )
    return 0


def cmd_meta(args) -> int:
    started = time.perf_counter()

    def meta_init(input_dim: int, n_heads: int = 1):
        return zero_meta_init(
            args.way, input_dim, n_heads, inner_lr=args.inner_lr,
            inner_steps=args.inner_steps, outer_lr=args.outer_lr, tasks=args.tasks,
        )

    # every check that needs no data comes before the files are read
    adj = _adjustment(args)
    if adj.strategy in ("class", "combined") and not args.kb:
        raise ValueError(f"--adjust {adj.strategy} requires --kb")
    _check_shape(None, args.way, args.shot, args.query)
    _check_count(args.eval_tasks, "evaluation task")
    one_head = meta_init(1)  # checks the rates and counts as the real init would
    if args.out_init:
        meta_bytes(one_head)  # refuse, before training, rates or counts the file cannot hold
    ds = _load_features_any(args.features)
    kb = load_kb(args.kb) if args.kb else None
    probe = Predictor(adj, kb, ds.dim, args.way, "linear")
    mi = meta_init(probe.head_input_dim, probe.n_heads)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))
    trained = meta_train(ds, args.way, args.shot, args.query, adj, mi, kb, rng)
    if args.out_init:
        save_meta(trained, args.out_init)

    meta_accs, zero_accs = evaluate_inits(
        ds, args.way, args.shot, args.query, probe, [trained.theta, mi.theta],
        trained.inner_lr, trained.inner_steps, args.eval_tasks, args.seed + 1,
    )
    meta_acc, meta_ci = mean_ci(meta_accs)
    zero_acc, zero_ci = mean_ci(zero_accs)
    doc = {
        "config": {
            "command": "meta", "features": str(args.features), "kb": args.kb,
            "way": args.way, "shot": args.shot, "query": args.query,
            "adjust": args.adjust, "tasks": args.tasks, "eval_tasks": args.eval_tasks,
            "inner_lr": args.inner_lr, "inner_steps": args.inner_steps,
            "outer_lr": args.outer_lr, "seed": args.seed,
        },
        "mean_acc": meta_acc,
        "ci95": meta_ci,
        "episodes": len(meta_accs),
        "hardness_bins": [],
        "zero_mean_acc": zero_acc,
        "zero_ci95": zero_ci,
        "gap": meta_acc - zero_acc,
        "meta": {"duration_s": time.perf_counter() - started, "version": __version__},
    }
    _emit(doc, args.out)
    if args.out is not None:
        print(
            f"meta_acc={meta_acc:.2f} zero_acc={zero_acc:.2f} gap={meta_acc - zero_acc:.2f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsl",
        description="Backdoor-adjusted few-shot evaluation and causal-graph tooling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ep = sub.add_parser("episodes", help="evaluate few-shot episodes from feature files")
    p_ep.add_argument("--features", required=True, help=".features binary or .csv file")
    p_ep.add_argument("--kb", required=True, help="knowledge-base file")
    p_ep.add_argument("--out", default=None, help="report JSON path (stdout when omitted)")
    p_ep.add_argument("--query-csv", default=None, help="optional per-query CSV dump")
    _episode_flags(p_ep)
    p_ep.set_defaults(func=cmd_episodes, bins=None, bins_csv=None)

    p_hd = sub.add_parser("hardness", help="episode evaluation with hardness-binned accuracy")
    p_hd.add_argument("--features", required=True)
    p_hd.add_argument("--kb", required=True)
    p_hd.add_argument("--out", default=None)
    p_hd.add_argument("--query-csv", default=None)
    p_hd.add_argument("--bins-csv", default=None, help="per-bin CSV (lo,hi,count,acc)")
    p_hd.add_argument("--bins", type=int, default=10, help="quantile bin count")
    _episode_flags(p_hd)
    p_hd.set_defaults(func=cmd_episodes)

    p_sy = sub.add_parser("synth", help="generate confounded data and compare baseline vs adjusted")
    p_sy.add_argument("--out-dir", required=True)
    p_sy.add_argument("--out", default=None, help="comparison report JSON path")
    p_sy.add_argument("--dim", type=int, default=64)
    p_sy.add_argument("--pretrain-classes", type=int, default=16)
    p_sy.add_argument("--novel-classes", type=int, default=16)
    p_sy.add_argument("--conf-strata", type=int, default=4, help="confounder strata")
    p_sy.add_argument("--beta", type=float, default=2.0)
    p_sy.add_argument("--sigma", type=float, default=0.5)
    p_sy.add_argument("--samples-per-class", type=int, default=500)
    p_sy.add_argument("--mismatch", type=float, default=0.5)
    p_sy.add_argument("--bins", type=int, default=10)
    _episode_flags(p_sy, default_episodes=1000)
    p_sy.set_defaults(func=cmd_synth, adjust="combined")

    p_scm = sub.add_parser("scm", help="causal-graph queries")
    scm_sub = p_scm.add_subparsers(dest="scm_command", required=True)
    for name, helptext in (
        ("dsep", "d-separation query"),
        ("iv", "instrumental-variable check"),
        ("rule", "do-calculus rule condition"),
        ("backdoor", "backdoor admissibility"),
    ):
        q = scm_sub.add_parser(name, help=helptext)
        q.add_argument("--graph", default="fsl", help="built-in graph name")
        q.add_argument("--graph-file", default=None, help="graph JSON file (overrides --graph)")
        q.add_argument("--out", default=None, help="JSON verdict path (stdout when omitted)")
        if name == "dsep":
            q.add_argument("--x", required=True)
            q.add_argument("--y", required=True)
            q.add_argument("--z", default="")
        elif name == "iv":
            q.add_argument("--instrument", required=True)
            q.add_argument("--treatment", required=True)
            q.add_argument("--outcome", required=True)
        elif name == "rule":
            q.add_argument("--rule", type=int, required=True, choices=(1, 2, 3))
            q.add_argument("--x", default="")
            q.add_argument("--y", required=True)
            q.add_argument("--z", required=True)
            q.add_argument("--w", default="")
        else:
            q.add_argument("--z", default="")
            q.add_argument("--treatment", required=True)
            q.add_argument("--outcome", required=True)
        q.set_defaults(func=cmd_scm)

    p_me = sub.add_parser("meta", help="meta-train a head initialization and evaluate it")
    p_me.add_argument("--features", required=True)
    p_me.add_argument("--kb", default=None)
    p_me.add_argument("--out", default=None, help="report JSON path")
    p_me.add_argument("--out-init", default=None, help="serialized initialization blob")
    _task_flags(p_me)
    p_me.add_argument("--tasks", type=int, default=1000)
    p_me.add_argument("--eval-tasks", type=int, default=500)
    p_me.add_argument("--inner-lr", type=float, default=0.01)
    p_me.add_argument("--inner-steps", type=int, default=20)
    p_me.add_argument("--outer-lr", type=float, default=0.01)
    p_me.set_defaults(func=cmd_meta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
