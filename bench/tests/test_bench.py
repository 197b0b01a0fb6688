"""Tests of the benchmark itself: seeding, the time limit, the references.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from obddlab import functions as fz  # noqa: E402
from obddlab import markov, oracles  # noqa: E402
from obddlab.core import (  # noqa: E402
    AcceptanceMode,
    CapExceededError,
    computes,
    program_width,
)

import compare  # noqa: E402
import harness  # noqa: E402
import jobs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

ANSWERS = ref.load_answers()


def digest(job_list) -> str:
    text = "\n".join(f"{j.kind}|{j.key}|{j.size}|{j.known}" for j in job_list)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_and_answers(workload):
    first = jobs.build_pass(workload, 7, ANSWERS)
    second = jobs.build_pass(workload, 7, ANSWERS)
    assert digest(first) == digest(second)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_new_seed_changes_inputs_but_not_the_work(workload):
    """Kinds and sizes of a pass do not depend on the seed.  The seed picks
    the job past the order cap, which hits the cap at once, and the Markov
    chains, each a few milliseconds."""
    def work(job_list):
        return Counter((j.kind, j.size, j.key if j.kind.startswith("verify") else None)
                       for j in job_list
                       if j.kind != "order.past_cap" and not j.kind.startswith("certify.markov"))

    first = jobs.build_pass(workload, 7, ANSWERS)
    second = jobs.build_pass(workload, 8, ANSWERS)
    assert Counter(j.kind for j in first) == Counter(j.kind for j in second)
    assert work(first) == work(second)
    assert digest(first) != digest(second)


def test_random_tables_differ_between_seeds():
    def tables(seed):
        return {j.known.split(" -> ")[0] for j in jobs.build_pass("certify", seed, ANSWERS)
                if j.kind == "certify.partial_exact"}
    first, second = tables(7), tables(8)
    assert len(first) == len(second) == len(jobs.EXACT_N) * jobs.CERTIFY_ROUNDS
    assert first.isdisjoint(second)


def test_run_passes_repeats_whole_passes():
    job_list = jobs.build_pass("certify", 1, ANSWERS)[:5]
    passes = harness.run_passes(job_list, harness.Probe(), harness.TimeLimit(5.0),
                                CapExceededError, seconds=0.0, min_passes=2)
    assert len(passes) == 2
    assert all([r.kind for r in p.records] == [j.kind for j in job_list] for p in passes)
    assert all(p.cpu_s > 0 and p.wall_s > 0 for p in passes)


def _slow_partial_job() -> harness.Job:
    rng = np.random.default_rng(5)
    table = ref.random_table(rng, 7, 0.5)

    def run_job(probe):
        f = fz.from_table(table)
        return {"answer": probe.call("oracles.partial_exact", oracles.partial_min_width_exact,
                                     f, class_cap=64)}

    return harness.Job("test.slow", None, 1 << 7, run_job,
                       lambda out: ["a decided verdict was not expected"])


def test_slow_job_under_tiny_limit_is_undecided_not_wrong():
    limit = harness.TimeLimit(0.05)
    record = harness.run_job(_slow_partial_job(), 0, harness.Probe(), limit, CapExceededError)
    assert record.status == "undecided"
    assert record.seconds == 0.05
    assert record.problems == []


def test_cap_hit_is_undecided():
    job = jobs.total_exact_job(np.random.default_rng(3), 13)
    record = harness.run_job(job, 0, harness.Probe(), harness.TimeLimit(5.0), CapExceededError)
    assert record.status == "undecided"
    assert record.seconds == 5.0


def test_wrong_answer_is_reported():
    job = jobs.build_pass("certify", 1, ANSWERS)[0]
    broken = harness.Job(job.kind, job.key, job.size, job.run, lambda out: ["forced"])
    record = harness.run_job(broken, 0, harness.Probe(), harness.TimeLimit(5.0),
                             CapExceededError)
    assert record.status == "wrong"


def test_tracing_records_a_span_per_call_under_the_job():
    probe = harness.TracingProbe()
    job_list = [j for j in jobs.build_pass("verify", 1, ANSWERS) if j.size <= 1 << 11]
    records = harness.run_closed_loop(job_list, probe, harness.TimeLimit(5.0),
                                      CapExceededError, len(job_list)).records
    assert all(r.status == "correct" for r in records)
    table = probe.layer_table()
    assert table["core.computes"]["calls"] >= len(job_list)
    job_spans = {s[0] for s in probe.spans if s[1] is None}
    assert len(job_spans) == len(job_list)
    assert all(s[1] in job_spans for s in probe.spans if s[1] is not None)


def test_reference_order_search_matches_library():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        table = ref.random_table(rng, n)
        want = oracles.min_width_over_orders(fz.from_table(table)).max_width
        assert ref.min_width_over_orders(table, n) == want


def test_reference_completions_match_library_on_total_tables():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        table = ref.random_table(rng, n)
        f = fz.from_table(table)
        assert ref.best_completion(table, n)[0] == oracles.subfunction_widths(f).max_width


def test_reference_lower_bound_matches_library():
    rng = np.random.default_rng(14)
    for n, undefined in ((4, 0.25), (5, 0.5), (6, 0.7)):
        table = ref.random_table(rng, n, undefined)
        assert ref.distinguishability_bound(table, n) == \
            oracles.distinguishability_lower_bound(fz.from_table(table)).max_width


@pytest.mark.parametrize("make", [
    lambda: ref.table_from_text("1101*10**1*10*10*1100**0101**101"),
    lambda: fz.partial_mod(1, 5).truth_table(),
], ids=["random-table", "partial_mod(1,5)"])
def test_partial_oracle_matches_completion_reference(make):
    """partial_min_width_exact against the minimum over completions.

    Fails at the commit that introduced this benchmark: the partition search
    assumes prefixes with identical rows may share a node, which does not
    hold for partial functions, so it overestimates.  A library-built
    minimal program of the best completion shows the smaller width is
    achievable.  This is why random partial tables are not in the workloads.
    """
    table = make()
    n = table.size.bit_length() - 1
    f = fz.from_table(table)
    best, completion = ref.best_completion(table, n)
    program = oracles.minimal_obdd(fz.from_table(completion))
    assert computes(program, f, AcceptanceMode.deterministic()).ok
    assert program_width(program).max_width == best
    assert oracles.partial_min_width_exact(f).max_width == best


def test_random_chain_structure_matches_classification():
    rng = np.random.default_rng(13)
    for _ in range(20):
        chain, expected = ref.random_chain(rng)
        dec = markov.classify_states(chain)
        assert list(dec.periods) == expected["periods"]
        assert len(dec.transient) == expected["transient"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_compare_verdicts_follow_the_metric_direction(better):
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    up = [v * 1.5 for v in base]
    down = [v * 0.5 for v in base]
    gain, loss = (up, down) if better == "higher" else (down, up)
    assert compare.verdict(base, gain, 0.25, better) == "better"
    assert compare.verdict(base, loss, 0.25, better) == "worse-beyond-bound"
    assert compare.verdict(base, base, 0.25, better) == "within-bound"
    noisy = [5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 10.0, 5.0, 15.0]
    assert compare.verdict(base, noisy, 0.25, better) == "unresolved"


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
