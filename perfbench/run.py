"""Benchmark of the ifsl package: four workloads, end-to-end and per-layer figures.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload confounded-1shot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

OUT_DIR = ".perfbench_out"
ROOT_SPANS = ("arm", "round")  # roots that time measured work; other roots are probes


def import_package():
    """Import ifsl from ./src of the current directory, and nothing else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ifsl", "__init__.py")):
        sys.exit(f"perfbench: no package source at {src}/ifsl; run from the root of a checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import ifsl

    if not os.path.abspath(ifsl.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ifsl from {ifsl.__file__}, not from {src}")


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("acc_pct", "%"),
)


def per_layer_catalogue(workloads) -> list[tuple[str, str]]:
    """Every per-layer metric, in a fixed order; a traced run prints all of them."""
    out = [(f"{n}_s", "s") for n in (
        "synth.gen_confounded", "synth.fit_kb", "knowledge.save", "knowledge.load", "causal_graph.build",
    )]
    out.append(("knowledge.file_bytes", "bytes"))
    conf, sparse, meta, dsep = workloads
    for arm in conf.arms:
        out += [(f"{n}_s.{arm.name}", "s") for n in (
            "synth.sample", "heads.fit", "heads.init", "adjust.inputs", "adjust.predict",
            "episodes.hardness", "evalmetrics.report", "episodes.pool_wait",
        )]
    out.append((f"episodes.sample_s.{sparse.name}", "s"))
    for arm in sparse.arms:
        stages = ["heads.init", "adjust.inputs", "adjust.predict", "episodes.hardness", "evalmetrics.report"]
        if arm.kind != "centroid":
            stages.insert(0, "heads.fit")
        out += [(f"{n}_s.{arm.name}", "s") for n in stages]
    out += [(f"{n}_s.{meta.name}", "s") for n in ("episodes.sample", "adjust.inputs", "adjust.predict")]
    out += [("meta.adapt_s", "s"), ("meta.train_s", "s")]
    out += [("causal_graph.dsep_s.small", "s"), ("causal_graph.dsep_s.large", "s")]
    fitted = [a.name for a in (*conf.arms, *sparse.arms) if a.kind != "centroid"]
    out += [(f"heads.{n}.{a}", "count") for a in fitted for n in ("sgd_steps", "heads_fitted")]
    out.append(("meta.inner_steps", "count"))
    tags = [a.name for a in (*conf.arms, *sparse.arms)] + [meta.name, dsep.name]
    out += [(f"trace.stage_sum_ratio.{t}", "ratio") for t in tags]
    out.append(("trace.overhead_pct", "%"))
    return out


def make_workloads():
    import workloads as w

    return (
        w.Confounded(),
        w.SparseCosineFiles(OUT_DIR),
        w.MetaCombined(),
        w.DsepRandomDags(),
    )


def layer_metrics(catalogue, setup_tracer, tracer, stats, state) -> dict:
    units = dict(catalogue)
    values = {name: 0.0 for name, _ in catalogue}

    def put(name, value):
        if name not in units:
            raise KeyError(f"per-layer metric {name!r} is missing from the catalogue")
        values[name] = float(value)

    for (name, _), secs in setup_tracer.self_times().items():
        put(f"{name}_s", secs)
    if "file_bytes" in state:
        put("knowledge.file_bytes", state["file_bytes"])
    for (name, tag), secs in tracer.self_times(roots=False).items():
        put(f"{name}_s" + (f".{tag}" if tag else ""), secs / stats.denominators[tag])
    for (name, tag), count in stats.counts.items():
        put(name + (f".{tag}" if tag else ""), count / stats.denominators[tag])
    traced = untraced = 0.0
    for tag, serial in stats.serial_s.items():
        roots = [r for name in ROOT_SPANS for r in tracer.roots(name, tag)]
        if len(roots) != len(serial):
            raise RuntimeError(f"{tag}: {len(roots)} traced passes for {len(serial)} untraced ones")
        ratios = [covered / seconds for (_, covered), seconds in zip(roots, serial)]
        put(f"trace.stage_sum_ratio.{tag}", statistics.median(ratios))
        traced += sum(duration for duration, _ in roots)
        untraced += sum(serial)
    for tag, wall in stats.threaded_s.items():
        covered = sum(c for _, c in tracer.roots("arm", tag))
        put(f"episodes.pool_wait_s.{tag}", (wall - covered) / stats.denominators[tag])
    put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in catalogue}


def run_one(args) -> int:
    import_package()
    import reference
    from spans import Tracer
    from workloads import NULL_TRACER, Stats

    workloads = make_workloads()
    by_name = {w.name: w for w in workloads}
    wl = by_name[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    # An untraced run sets up ``setup_reps`` times and measures a slice of
    # --seconds after each set-up, so that its rounds spread over the whole
    # run. ``ops_per_s`` is at reference speed (reference.py): a round's
    # package work is scaled by the reference calls made between its
    # pieces. ``setup_s`` is wall-clock time: set-up is mostly larger numpy
    # work, which slows less than the reference, and scaling it made the
    # figures spread more. A traced run sets up once, traced, measures in
    # one slice and makes no reference calls.
    stats = Stats()
    stats.reference_kind = wl.reference
    if args.trace:
        stats.reference_every = float("inf")
    tracer = Tracer()
    setup_tracer = Tracer()
    setup_times = []
    rates, raw_rates, speeds = [], [], []  # per round; speed > 1 on a slow machine
    rounds = 0
    elapsed = 0.0
    slices = 1 if args.trace else wl.setup_reps
    for _ in range(slices):
        t0 = perf_counter()
        state = wl.setup(args.seed, setup_tracer if args.trace else NULL_TRACER)
        setup_times.append(perf_counter() - t0)
        start = perf_counter()
        while perf_counter() - start < args.seconds / slices:
            done, stats.work_s, stats.reference_s = stats.completed, 0.0, []
            stats.last_reference = perf_counter()
            if args.trace:
                wl.trace_round(state, args.seed, rounds, stats, tracer)
            else:
                wl.run_round(state, args.seed, rounds, stats)
                if not stats.reference_s:  # a round shorter than the reference interval
                    stats.reference_s.append(reference.call(wl.reference))
                speeds.append(statistics.median(stats.reference_s) / reference.NOMINAL_SECONDS[wl.reference])
                raw_rates.append((stats.completed - done) / stats.work_s)
                rates.append(raw_rates[-1] * speeds[-1])
            rounds += 1
        elapsed += perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.problems(state, stats)
    problems += [f"traced run differs from the untraced run: {m}" for m in stats.mismatches]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(per_layer_catalogue(workloads), setup_tracer, tracer, stats, state)
        with open(os.path.join(OUT_DIR, f"trace-{wl.name}.json"), "w") as fh:
            json.dump({"setup": setup_tracer.records(), "run": tracer.records()}, fh)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
            "acc_pct": wl.accuracy(stats),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {wl.name}: seed {args.seed}, {rounds} rounds in {elapsed:.2f} s, "
          f"attempted {stats.attempted}, failed {stats.failed}")
    for line in wl.summary(stats):
        print(f"  {line}")
    if not args.trace:
        print(f"  wall clock, unscaled: {statistics.median(raw_rates):.4g} ops/s; "
              f"machine slowdown against the {wl.reference} reference: "
              f"median {statistics.median(speeds):.3g}, range {min(speeds):.3g}-{max(speeds):.3g}")
    for name, m in metrics.items():
        if m["value"] != 0.0:  # a traced run reports 0 for layers this workload does not reach
            print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    import_package()
    combined = {}
    status = 0
    for wl in make_workloads():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {wl.name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        combined[wl.name] = json.loads(lines[-1])
        status |= 0 if combined[wl.name]["correct"] else 1
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    # One BLAS thread: a multi-threaded BLAS slows several-fold whenever the
    # other core is busy, which would swamp the figures on a shared machine.
    # The package's own thread pool is unaffected. Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["confounded-1shot", "sparse-cosine-files", "meta-combined",
                                 "dsep-random-dags", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
