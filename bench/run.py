#!/usr/bin/env python3
"""The obddlab benchmark: seeded closed-loop workloads with checked verdicts.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --compare before.jsonl after.jsonl

``--trace 0`` repeats the workload's seeded pass of jobs for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs a
fixed number of passes with a span around every library call, each
followed by the same pass untraced, and reports the per-layer metrics and
the tracing overhead.  Times are CPU seconds of the benchmark process (see
harness.py).  The last line of standard output is one JSON object.  With
``--out FILE`` the run also appends its result to FILE (JSON lines), the
input of ``--compare``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS and OpenMP pools are pinned to one thread before numpy loads, so a
#: small box measures the program and not the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

JOB_LIMIT_S = 5.0
SETUP_REPEATS = 5
#: an untraced run pools at least this many passes, also when a slow commit
#: fits fewer into ``--seconds``
MIN_PASSES = 3
#: pairs of a traced and an untraced pass in a traced run
TRACE_PASSES = 3

END_TO_END = (
    ("decided_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("core.computes.s", "s"), ("core.computes.inputs", "count"),
    ("core.computes.us_per_input", "us"),
    ("core.validate.s", "s"), ("core.program_width.s", "s"),
    ("serialize.encode.s", "s"), ("serialize.decode.s", "s"), ("serialize.bytes", "B"),
    ("constructions.build.s", "s"),
    ("core.subset.s", "s"), ("core.subset.blowup", "ratio"),
    ("oracles.order_search.s", "s"), ("oracles.order_search.orders", "count"),
    ("oracles.order_search.us_per_order", "us"),
    ("oracles.partial_exact.s", "s"), ("oracles.partial_exact.widths_tried", "count"),
    ("oracles.undecided", "count"),
    ("oracles.subfunction.s", "s"), ("oracles.subfunction.calls", "count"),
    ("oracles.lower_bound.s", "s"),
    ("functions.truth_table.s", "s"), ("functions.truth_table.entries", "count"),
    ("oracles.stable_search.s", "s"), ("oracles.stable_search.program_inputs", "count"),
    ("oracles.stable_search.ns_per_program_input", "ns"),
    ("markov.classify.s", "s"), ("markov.certificate.s", "s"), ("markov.states", "count"),
    ("reports.run_report.s", "s"), ("reports.run_report.calls", "count"),
    *((f"{m}.self_s", "s") for m in
      ("functions", "constructions", "core", "oracles", "markov", "serialize", "reports")),
    *((f"{m}.calls", "count") for m in
      ("functions", "constructions", "core", "oracles", "markov", "serialize", "reports")),
    ("bench.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)

SIZE_UNIT = {"verify": "inputs (sum of 2^n)", "order-search": "orders (sum of n!)",
             "certify": "table entries (sum of 2^n)"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify", "order-search", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's result to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two result files written with --out")
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required unless --compare is given")
    return args


def import_library():
    """Import the library from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import obddlab
    origin = Path(obddlab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"obddlab was imported from {origin}, not from {ROOT / 'src'}")


def import_seconds(cpu_ns) -> float:
    """Median CPU time to start a fresh interpreter and import the library
    and the benchmark, so one slow start does not set the figure."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import obddlab, jobs"
    times = []
    for _ in range(SETUP_REPEATS):
        start = cpu_ns()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)], check=True)
        times.append((cpu_ns() - start) / 1e9)
    return statistics.median(times)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        line = head.read_text().strip()
        return (head.parent / line[5:]).read_text().strip() if line.startswith("ref: ") else line
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "commit": commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "job_limit_s": JOB_LIMIT_S, "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }


def summarize(records, cpu_s: float) -> dict:
    """The end-to-end figures of a run of whole passes that took ``cpu_s``."""
    from harness import percentile
    times = [r.seconds for r in records]
    correct = sum(r.status == "correct" for r in records)
    p90 = percentile(times, 90)
    return {
        "decided_per_s": correct / cpu_s,
        "verdict_p50_ms": 1e3 * percentile(times, 50),
        "verdict_p90_ms": 1e3 * p90,
        "decided_ratio": correct / len(records),
        "correct": correct,
        "undecided": sum(r.status == "undecided" for r in records),
        "wrong_verdicts": sum(r.status == "wrong" for r in records),
        "beyond_p90": sum(t > p90 for t in times),
        "size_per_s": sum(r.size for r in records if r.status == "correct") / cpu_s,
    }


def layer_metrics(probe, traced_s: float, untraced_s: float, undecided: int) -> dict:
    table = probe.layer_table()
    counters = probe.counters

    def seconds(name):
        return table.get(name, {}).get("s", 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics = {
        "core.computes.s": seconds("core.computes"),
        "core.computes.inputs": counters.get("core.computes.inputs", 0),
        "core.computes.us_per_input": ratio(seconds("core.computes"),
                                            counters.get("core.computes.inputs", 0), 1e6),
        "core.validate.s": seconds("core.validate"),
        "core.program_width.s": seconds("core.program_width"),
        "serialize.encode.s": seconds("serialize.encode"),
        "serialize.decode.s": seconds("serialize.decode"),
        "serialize.bytes": counters.get("serialize.bytes", 0),
        "constructions.build.s": seconds("constructions.build"),
        "core.subset.s": seconds("core.subset"),
        "core.subset.blowup": ratio(counters.get("core.subset.width", 0),
                                    counters.get("core.subset.source_width", 0)),
        "oracles.order_search.s": seconds("oracles.order_search"),
        "oracles.order_search.orders": counters.get("oracles.order_search.orders", 0),
        "oracles.order_search.us_per_order": ratio(
            seconds("oracles.order_search"), counters.get("oracles.order_search.orders", 0), 1e6),
        "oracles.partial_exact.s": seconds("oracles.partial_exact"),
        "oracles.partial_exact.widths_tried": counters.get("oracles.partial_exact.widths_tried", 0),
        "oracles.undecided": undecided,
        "oracles.subfunction.s": seconds("oracles.subfunction"),
        "oracles.subfunction.calls": counters.get("oracles.subfunction.calls", 0),
        "oracles.lower_bound.s": seconds("oracles.lower_bound"),
        "functions.truth_table.s": seconds("functions.truth_table"),
        "functions.truth_table.entries": counters.get("functions.truth_table.entries", 0),
        "oracles.stable_search.s": seconds("oracles.stable_search"),
        "oracles.stable_search.program_inputs":
            counters.get("oracles.stable_search.program_inputs", 0),
        "oracles.stable_search.ns_per_program_input": ratio(
            seconds("oracles.stable_search"),
            counters.get("oracles.stable_search.program_inputs", 0), 1e9),
        "markov.classify.s": seconds("markov.classify"),
        "markov.certificate.s": seconds("markov.certificate"),
        "markov.states": counters.get("markov.states", 0),
        "reports.run_report.s": seconds("reports.run_report"),
        "reports.run_report.calls": counters.get("reports.run_report.calls", 0),
    }
    for module in ("functions", "constructions", "core", "oracles", "markov", "serialize",
                   "reports"):
        rows = [row for name, row in table.items() if name.split(".")[0] == module]
        metrics[f"{module}.self_s"] = sum(row["self_s"] for row in rows)
        metrics[f"{module}.calls"] = sum(row["calls"] for row in rows)
    metrics["bench.self_s"] = sum(row["self_s"] for name, row in table.items()
                                  if name.startswith("job."))
    metrics["trace.spans"] = len(probe.spans)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = ratio(traced_s - untraced_s, untraced_s, 100.0)
    return metrics


def print_layer_table(probe) -> None:
    table = probe.layer_table()
    print(f"{'span':<28} {'calls':>7} {'total s':>10} {'self s':>10}")
    for name in sorted(table, key=lambda k: -table[k]["self_s"]):
        row = table[name]
        print(f"{name:<28} {row['calls']:>7} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    for name in sorted(probe.counters):
        print(f"counter {name} = {probe.counters[name]:g}")


def write_spans(path: Path, probe, workload: str, seed: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["span_id", "parent_id", "job_id", "name", "start_ns", "end_ns"],
                   "spans": probe.spans}, fh)


def measure(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    from obddlab.core import CapExceededError

    import harness
    import jobs
    import reference

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = harness.cpu_ns()
        answers = reference.load_answers()
        pass_jobs = jobs.build_pass(args.workload, args.seed, answers)
        setup_times.append((harness.cpu_ns() - start) / 1e9)
    setup_s = import_seconds(harness.cpu_ns) + statistics.median(setup_times)

    limit = harness.TimeLimit(JOB_LIMIT_S)
    env = environment(args)
    for key, value in env.items():
        print(f"env {key} = {value}")

    # one job of each kind, the smallest, so lazy set-up finishes before timing
    warm: dict[str, harness.Job] = {}
    for job in pass_jobs:
        if job.kind not in warm or job.size < warm[job.kind].size:
            warm[job.kind] = job
    warm_records = harness.run_closed_loop(list(warm.values()), harness.Probe(), limit,
                                           CapExceededError, len(warm)).records

    if args.trace:
        # traced and untraced passes alternate, so a slow spell of a shared
        # host lands on both sides of the overhead
        probe = harness.TracingProbe()
        traced, untraced = [], []
        for i in range(TRACE_PASSES):
            traced.append(harness.run_closed_loop(pass_jobs, probe, limit, CapExceededError,
                                                  len(pass_jobs), i * len(pass_jobs)))
            untraced.append(harness.run_closed_loop(pass_jobs, harness.Probe(), limit,
                                                    CapExceededError, len(pass_jobs)))
        traced_s, untraced_s = (sum(p.cpu_s for p in side) for side in (traced, untraced))
        records = [r for p in traced for r in p.records]
        summary = summarize(records, traced_s)
        metrics = layer_metrics(probe, traced_s, untraced_s, summary["undecided"])
        units = dict(PER_LAYER)
        print_layer_table(probe)
        spans = Path(f".bench_out/spans-{args.workload}-{args.seed}.json")
        write_spans(spans, probe, args.workload, args.seed)
        print(f"spans written to {spans}")
        records += [r for p in untraced for r in p.records]
    else:
        passes = harness.run_passes(pass_jobs, harness.Probe(), limit, CapExceededError,
                                    seconds=args.seconds, min_passes=MIN_PASSES)
        records = [r for p in passes for r in p.records]
        cpu_s, wall_s = sum(p.cpu_s for p in passes), sum(p.wall_s for p in passes)
        summary = summarize(records, cpu_s)
        metrics = {name: summary[name] for name, _ in END_TO_END if name in summary}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        print(f"passes {len(passes)} of {len(pass_jobs)} jobs in {cpu_s:.2f} CPU s, "
              f"{wall_s:.2f} wall s (ratio {wall_s / cpu_s:.3f}): {summary['correct']} correct, "
              f"{summary['undecided']} undecided, {summary['wrong_verdicts']} wrong; "
              f"{summary['beyond_p90']} beyond p90")
        print("decided_per_s by pass: " + " ".join(
            f"{summarize(p.records, p.cpu_s)['decided_per_s']:.4g}" for p in passes))
        print(f"decided_per_s at stated size: {summary['size_per_s']:.6g} "
              f"{SIZE_UNIT[args.workload]} per s")

    judged = warm_records + records
    wrong = [r for r in judged if r.status == "wrong"]
    for r in wrong[:20]:
        print(f"WRONG {r.kind}: {'; '.join(r.problems)}")
    print(f"wrong_verdicts = {len(wrong)}")
    result = {
        "correct": not wrong,
        "attempted": len(judged),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"env": env, **result}) + "\n")
    print(json.dumps(result))
    return 1 if wrong else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
