"""The three workloads, each as one seeded pass of jobs.

A run repeats its pass, whole passes only.  A pass holds a fixed multiset
of job kinds and parameters in a fixed order, so every seed gives the same
amount of work and the same mix; the seed picks the random tables and
chains, the pairing of constructions with n in ``verify`` and the job past
the order cap in ``order-search``.

``verify``        the explicit constructions, as ``obddlab verify`` checks
                  them; ``core.computes`` does almost all the work.
``order-search``  ``min_width_over_orders``; the per-order loop does almost
                  all the work and ``computes`` does none.
``certify``       the fixed-order certificates: the partition search and the
                  distinguishability bound, subfunction counts at n = 16..22,
                  stable search, the Markov period certificate and the
                  reports.

No workload gives the partition search a random partial table: it
overestimates the minimal width on many of them (see README.md), so they
have no answer to check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from obddlab import constructions as cons
from obddlab import core, markov, oracles, reports, serialize
from obddlab import functions as fz

import reference as ref
from harness import Job, Probe

WORKLOADS = ("verify", "order-search", "certify")

DET = core.AcceptanceMode.deterministic()
EXACT = core.AcceptanceMode.exact()
NONDET = core.AcceptanceMode.nondeterministic()


class MissingAnswer(LookupError):
    """A job needs a recorded answer that ``answers.json`` lacks."""


def _recorded(answers: dict | None, key: str):
    if answers is None:  # recording: every outcome is accepted
        return None
    if key not in answers["keyed"]:
        raise MissingAnswer(f"no recorded answer for {key}; rerun record_answers.py")
    return answers["keyed"][key]


def _compare(problems: list[str], what: str, got, want) -> None:
    if want is not None and got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _shuffled(jobs: list[Job]) -> list[Job]:
    """A fixed shuffle, the same for every seed, so that peak memory and
    cache state follow the same sequence of job kinds in every run."""
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]


def _function(probe: Probe, make: Callable[[], fz.FunctionSpec]) -> fz.FunctionSpec:
    f = probe.call("functions.family", make)
    probe.call("functions.truth_table", f.truth_table)
    probe.count("functions.truth_table.entries", 1 << f.n)
    return f


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Construction:
    name: str
    build: Callable[..., core.ObddProgram]
    function: Callable[..., fz.FunctionSpec]
    params: Callable[[int], list[tuple]]
    mode: Callable[[int], core.AcceptanceMode] = lambda n: DET
    width: Callable[..., int] | None = None   # closed form, from (*params, n)
    lift: bool = False                        # view as a probabilistic program


CONSTRUCTIONS = (
    Construction("det_partialmod", cons.build_det_partialmod, fz.partial_mod,
                 lambda n: [(0,), (1,), (2,)], width=lambda k, n: 1 << (k + 1)),
    Construction("det_mod", cons.build_det_mod, fz.mod_count,
                 lambda n: [(d,) for d in range(2, min(7, n // 2 + 1))], width=lambda d, n: d),
    Construction("prob_counter", cons.build_det_counter, fz.mod_count,
                 lambda n: [(m,) for m in range(2, min(7, n // 2 + 1))], mode=lambda n: EXACT,
                 width=lambda m, n: m, lift=True),
    Construction("quantum_partialmod", cons.build_quantum_partialmod, fz.partial_mod,
                 lambda n: [(0,), (1,), (2,)], mode=lambda n: EXACT, width=lambda k, n: 2),
    Construction("quantum_nondet_noto", cons.build_quantum_nondet_noto, fz.not_o,
                 lambda n: [()],
                 mode=lambda n: core.AcceptanceMode.nondeterministic(cons.quantum_noto_cutoff(n)),
                 width=lambda n: 2),
    Construction("nobdd_noto", cons.build_nobdd_noto_fingerprint, fz.not_o_prefix,
                 lambda n: [(4,), (6,), (8,)], mode=lambda n: NONDET),
    Construction("nobdd_noteqs", cons.build_nobdd_noteqs_fingerprint, fz.not_eqs,
                 lambda n: [(4,), (8,)], mode=lambda n: NONDET),
    Construction("det_eqs", cons.build_det_eqs, fz.eqs, lambda n: [(4,), (8,)],
                 width=lambda k, n: ref.eqs_construction_width(k)),
    Construction("det_notpal", cons.build_det_notpal, fz.not_pal, lambda n: [()],
                 width=lambda n: 3),
)
_BY_NAME = {c.name: c for c in CONSTRUCTIONS}

#: "no" jobs: a construction against a function that provably differs from it
NO_PAIRS = (
    ("det_mod", lambda d, n: fz.mod_count(d + 1, n), lambda n: [(d,) for d in range(2, n // 2)]),
    ("det_partialmod", lambda k, n: fz.partial_mod(k + 1, n), lambda n: [(0,), (1,), (2,)]),
    ("quantum_partialmod", lambda k, n: fz.partial_mod(k + 1, n), lambda n: [(0,), (1,), (2,)]),
    ("nobdd_noto", lambda k, n: fz.not_o_prefix(k + 2, n), lambda n: [(4,), (6,)]),
    ("det_eqs", lambda k, n: fz.not_eqs(k, n), lambda n: [(4,), (8,)]),
    ("det_notpal", lambda n: fz.not_o(n), lambda n: [()]),
)

VERIFY_N = range(10, 15)


def _inputs_checked(result: core.ComputesResult, n: int) -> int:
    # exhaustive computes walks inputs in index order and stops at the first miss
    return 1 << n if result.ok else int(result.counterexample, 2) + 1


def _computes(probe: Probe, p, f, mode) -> core.ComputesResult:
    result = probe.call("core.computes", core.computes, p, f, mode)
    probe.count("core.computes.inputs", _inputs_checked(result, f.n))
    return result


def _counterexample_problems(tag: str, p, f, mode, result, expect_ok: bool) -> list[str]:
    if result.ok != expect_ok:
        return [f"{tag}: computes said {result.ok}, expected {expect_ok}"]
    if result.ok:
        return []
    x = result.counterexample
    want, prob = f(x), core.simulate(p, x)
    if want is None or (mode.accepts_yes(prob) if want == 1 else mode.accepts_no(prob)):
        return [f"{tag}: counterexample {x} is not one (f = {want}, acceptance {prob:.6g})"]
    return []


def verify_job(c: Construction, params: tuple, n: int, answers: dict | None,
               target: Callable[..., fz.FunctionSpec] | None = None) -> Job:
    expect_ok = target is None
    target = target or c.function
    mode = c.mode(n)
    key = f"verify.{c.name}{'' if expect_ok else '.no'}/{','.join(map(str, params))}/n={n}"
    recorded = _recorded(answers, key)
    width = c.width(*params, n) if c.width else None

    def run(probe: Probe) -> dict:
        p = probe.call("constructions.build", c.build, *params, n)
        if c.lift:
            p = probe.call("core.lift", core.lift_deterministic, p)
        text = probe.call("serialize.encode", serialize.encode_program, p)
        probe.count("serialize.bytes", len(text))
        q = probe.call("serialize.decode", serialize.decode_program, text)
        valid = probe.call("core.validate", core.validate_program, q)
        widths = probe.call("core.program_width", core.program_width, q)
        f = _function(probe, partial(target, *params, n))
        result = _computes(probe, q, f, mode)
        out = {"p": p, "q": q, "f": f, "valid": valid, "result": result,
               "answer": {"ok": result.ok, "width": widths.max_width}}
        if q.kind == "nondeterministic":
            d = probe.call("core.subset", core.nobdd_to_obdd_subset, q)
            d_widths = probe.call("core.program_width", core.program_width, d)
            probe.count("core.subset.source_width", widths.max_width)
            probe.count("core.subset.width", d_widths.max_width)
            out["d"], out["d_result"] = d, _computes(probe, d, f, DET)
            out["answer"].update(subset_ok=out["d_result"].ok, subset_width=d_widths.max_width)
        return out

    def check(out: dict) -> list[str]:
        problems = [f"invalid program: {v}" for v in out["valid"].violations]
        if not core.programs_structurally_equal(out["p"], out["q"]):
            problems.append("decode(encode(p)) differs from p")
        _compare(problems, "width", out["answer"]["width"], width)
        problems += _counterexample_problems("computes", out["q"], out["f"], mode,
                                             out["result"], expect_ok)
        if "d" in out:
            problems += _counterexample_problems("subset computes", out["d"], out["f"], DET,
                                                 out["d_result"], expect_ok)
        _compare(problems, "recorded answer", out["answer"], recorded)
        return problems

    kind = f"verify.{'yes' if expect_ok else 'no'}.{c.name}"
    return Job(kind, key, 1 << n, run, check, f"{key} -> width {width}, {recorded}")


def verify_keyed(answers: dict | None) -> list[Job]:
    jobs = [verify_job(c, params, n, answers)
            for c in CONSTRUCTIONS for n in VERIFY_N for params in c.params(n)]
    jobs += [verify_job(_BY_NAME[name], params, n, answers, target)
             for name, target, choices in NO_PAIRS for n in VERIFY_N for params in choices(n)]
    return jobs


def verify_pass(rng: np.random.Generator, answers: dict) -> list[Job]:
    """Every construction once at each n = 10..14 ("yes"), and ten "no"
    jobs.  The parameters are fixed per construction and n; the seed picks
    which n each construction meets in which round."""
    phase = int(rng.integers(len(VERIFY_N)))
    jobs = []
    for r in range(len(VERIFY_N)):
        for i, c in enumerate(CONSTRUCTIONS):
            n = VERIFY_N[(r + i + phase) % len(VERIFY_N)]
            choices = c.params(n)
            jobs.append(verify_job(c, choices[n % len(choices)], n, answers))
    for slot in range(2 * len(VERIFY_N)):
        name, target, params_at = NO_PAIRS[slot % len(NO_PAIRS)]
        n = VERIFY_N[(slot // len(NO_PAIRS) + slot) % len(VERIFY_N)]
        choices = params_at(n)
        jobs.append(verify_job(_BY_NAME[name], choices[(slot + n) % len(choices)], n, answers,
                               target))
    return _shuffled(jobs)


# ---------------------------------------------------------------------------
# order-search
# ---------------------------------------------------------------------------

#: (name, function, closed-form minimal width or None)
ORDER_FAMILIES_6 = (
    ("not_o(6)", partial(fz.not_o, 6), ref.noto_width(6)),
    ("not_pal(6)", partial(fz.not_pal, 6), None),
    ("eqs(4,6)", partial(fz.eqs, 4, 6), None),
    ("mod_count(3,6)", partial(fz.mod_count, 3, 6), 3),
    ("partial_mod(0,6)", partial(fz.partial_mod, 0, 6), 2),
    ("partial_mod(1,6)", partial(fz.partial_mod, 1, 6), 4),
)
ORDER_FAMILIES_7 = (
    ("not_o(7)", partial(fz.not_o, 7), ref.noto_width(7)),
    ("not_pal(7)", partial(fz.not_pal, 7), None),
    ("eqs(4,7)", partial(fz.eqs, 4, 7), None),
    ("mod_count(3,7)", partial(fz.mod_count, 3, 7), 3),
)
#: just past the default n_cap = 8: undecided today
ORDER_PAST_CAP = (
    ("not_o(10)", partial(fz.not_o, 10), ref.noto_width(10)),
    ("mod_count(3,9)", partial(fz.mod_count, 3, 9), 3),
    ("not_pal(9)", partial(fz.not_pal, 9), None),
    ("partial_mod(1,9)", partial(fz.partial_mod, 1, 9), 4),
    ("eqs(4,9)", partial(fz.eqs, 4, 9), None),
)


def order_job(kind: str, key: str | None, make: Callable[[], fz.FunctionSpec], n: int,
              expected: int | None, inputs: str, recorded=None) -> Job:
    def run(probe: Probe) -> dict:
        f = _function(probe, make)
        report = probe.call("oracles.order_search", oracles.min_width_over_orders, f)
        probe.count("oracles.order_search.orders", math.factorial(n))
        order = core.VariableOrder(n, report.order)
        if f.total:
            at = probe.call("oracles.subfunction", oracles.subfunction_widths, f, order)
            probe.count("oracles.subfunction.calls", 1)
        else:
            at = probe.call("oracles.lower_bound", oracles.distinguishability_lower_bound,
                            f, order)
        return {"report": report, "at": at, "answer": {"width": report.max_width}}

    def check(out: dict) -> list[str]:
        problems: list[str] = []
        report, at = out["report"], out["at"]
        _compare(problems, "min width", report.max_width, expected)
        if at.kind == "exact":
            _compare(problems, "widths under the returned order", at.per_level,
                     report.per_level)
        elif at.max_width > report.max_width:
            problems.append(f"lower bound {at.max_width} under the returned order exceeds "
                            f"the reported width {report.max_width}")
        _compare(problems, "recorded answer", out["answer"], recorded)
        return problems

    return Job(kind, key, math.factorial(n), run, check, f"{inputs} -> {expected}, {recorded}")


def family_order_job(family, answers: dict | None) -> Job:
    name, make, closed = family
    f = make()
    table = f.truth_table()
    key = f"order.family/{name}"
    expected = closed
    if f.total:  # independent reference: bottleneck path over variable subsets
        expected = ref.min_width_over_orders(table, f.n)
        if closed is not None and closed != expected:
            raise AssertionError(f"{name}: closed form {closed} != reference {expected}")
    return order_job("order.family" if f.n <= 8 else "order.past_cap", key, make, f.n,
                     expected, key, _recorded(answers, key))


def total_order_job(rng: np.random.Generator, n: int) -> Job:
    table = ref.random_table(rng, n)
    return order_job(f"order.random_total.n{n}", None, partial(fz.from_table, table), n,
                     ref.min_width_over_orders(table, n), ref.table_to_text(table))


def order_keyed(answers: dict | None) -> list[Job]:
    return [family_order_job(fam, answers)
            for fam in ORDER_FAMILIES_6 + ORDER_FAMILIES_7 + ORDER_PAST_CAP]


#: random total tables per pass, by n
ORDER_RANDOM = {5: 6, 6: 6, 7: 2}


def order_pass(rng: np.random.Generator, answers: dict) -> list[Job]:
    """Every family at n = 6 and 7 once, random total tables at n = 5, 6
    and 7, and one job past the order cap, which the seed picks."""
    jobs = [family_order_job(f, answers) for f in ORDER_FAMILIES_6 + ORDER_FAMILIES_7]
    jobs += [total_order_job(rng, n) for n, count in ORDER_RANDOM.items() for _ in range(count)]
    jobs.append(family_order_job(ORDER_PAST_CAP[rng.integers(len(ORDER_PAST_CAP))], answers))
    return _shuffled(jobs)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def partial_exact_job(kind: str, make: Callable[[], fz.FunctionSpec], n: int,
                      expected: int, lower: int, inputs: str, key: str | None = None,
                      recorded=None) -> Job:
    def run(probe: Probe) -> dict:
        f = _function(probe, make)
        lb = probe.call("oracles.lower_bound", oracles.distinguishability_lower_bound, f)
        exact = probe.call("oracles.partial_exact", oracles.partial_min_width_exact, f)
        probe.count("oracles.partial_exact.widths_tried", exact.max_width - lb.max_width + 1)
        return {"answer": {"width": exact.max_width, "lower_bound": lb.max_width}}

    def check(out: dict) -> list[str]:
        problems: list[str] = []
        _compare(problems, "answer", out["answer"], {"width": expected, "lower_bound": lower})
        _compare(problems, "recorded answer", out["answer"], recorded)
        return problems

    return Job(kind, key, 1 << n, run, check, f"{inputs} -> {expected}, {lower}, {recorded}")


def total_exact_job(rng: np.random.Generator, n: int) -> Job:
    """The partition search on a random total table; the reference is the
    tuple-set count of distinct rows, and past n_cap = 12 it is undecided."""
    table = ref.random_table(rng, n)
    width = max(ref.natural_widths(table, n))
    kind = "certify.partial_exact" if n <= 12 else "certify.partial_exact.past_cap"
    return partial_exact_job(kind, partial(fz.from_table, table), n, width,
                             ref.distinguishability_bound(table, n), ref.table_to_text(table))


#: acceptance criterion 2 asserts width 4 for PartialMOD(1, n) at these n; no
#: independent reference checks it
PARTIAL_MOD_N = (6, 8)


def partial_mod_exact_job(n: int, answers: dict | None) -> Job:
    key = f"certify.partial_exact/partial_mod(1,{n})"
    f = fz.partial_mod(1, n)
    return partial_exact_job("certify.partial_exact.partial_mod", partial(fz.partial_mod, 1, n),
                             n, 4, ref.distinguishability_bound(f.truth_table(), n), key,
                             key, _recorded(answers, key))


SUBFUNCTION_FAMILIES = (
    ("not_o", lambda n: fz.not_o(n), ref.noto_width),
    ("mod_count(5)", lambda n: fz.mod_count(5, n), lambda n: 5),
    ("eqs(8)", lambda n: fz.eqs(8, n), None),
    ("not_o_prefix(12)", lambda n: fz.not_o_prefix(12, n), None),
    ("not_pal", lambda n: fz.not_pal(n), None),
)
SUBFUNCTION_N = range(16, 23)
#: the NotPAL table is built by a per-bit loop and has 2**(n/2) classes
NOT_PAL_MAX_N = 18


def subfunction_job(family, n: int, answers: dict | None) -> Job:
    name, make, closed = family
    key = f"certify.subfunction/{name}/n={n}"
    recorded = _recorded(answers, key)

    def run(probe: Probe) -> dict:
        f = _function(probe, partial(make, n))
        report = probe.call("oracles.subfunction", oracles.subfunction_widths, f)
        probe.count("oracles.subfunction.calls", 1)
        return {"answer": {"per_level": list(report.per_level)}}

    def check(out: dict) -> list[str]:
        problems: list[str] = []
        if closed is not None:
            _compare(problems, "max width", max(out["answer"]["per_level"]), closed(n))
        _compare(problems, "recorded answer", out["answer"], recorded)
        return problems

    return Job("certify.subfunction", key, 1 << n, run, check, f"{key} -> {recorded}")


#: (function, width, kind, closed-form "found"): n <= 10, widths up to 4 / 3
STABLE_SEARCHES = (
    ("partial_mod(1,6)", partial(fz.partial_mod, 1, 6), 3, "nondeterministic", False),
    ("partial_mod(1,6)", partial(fz.partial_mod, 1, 6), 4, "deterministic", True),
    ("partial_mod(1,6)", partial(fz.partial_mod, 1, 6), 3, "deterministic", False),
    ("not_o(8)", partial(fz.not_o, 8), 2, "nondeterministic", False),
    ("mod_count(3,9)", partial(fz.mod_count, 3, 9), 3, "deterministic", True),
    ("mod_count(3,10)", partial(fz.mod_count, 3, 10), 2, "deterministic", False),
    ("partial_mod(0,10)", partial(fz.partial_mod, 0, 10), 2, "deterministic", True),
    ("partial_mod(0,10)", partial(fz.partial_mod, 0, 10), 2, "nondeterministic", True),
    ("mod_count(2,10)", partial(fz.mod_count, 2, 10), 1, "nondeterministic", False),
)


def _program_count(width: int, kind: str) -> int:
    return width ** (2 * width) if kind == "deterministic" else 1 << (2 * width * width)


def stable_job(search, answers: dict | None) -> Job:
    name, make, width, kind, closed = search
    key = f"certify.stable/{name}/{kind}/w={width}"
    recorded = _recorded(answers, key)

    def run(probe: Probe) -> dict:
        f = _function(probe, make)
        found = probe.call("oracles.stable_search", oracles.stable_exhaustive_search,
                           f, width, kind)
        defined = int(np.count_nonzero(f.truth_table() != fz.STAR))
        probe.count("oracles.stable_search.program_inputs",
                    _program_count(width, kind) * defined)
        return {"f": f, "found": found, "answer": {"found": found is not None}}

    def check(out: dict) -> list[str]:
        problems: list[str] = []
        _compare(problems, "found", out["answer"]["found"], closed)
        _compare(problems, "recorded answer", out["answer"], recorded)
        p, f = out["found"], out["f"]
        if p is not None:
            table = f.truth_table()
            for i in np.flatnonzero(table != fz.STAR):
                if core.simulate(p, format(int(i), f"0{f.n}b")) != float(table[i]):
                    problems.append(f"found program is wrong on input {int(i):0{f.n}b}")
                    break
        return problems

    return Job("certify.stable_search", key, 1 << make().n, run, check, f"{key} -> {recorded}")


def counter_chain_job(modulus: int, k: int) -> Job:
    expected = {"periods": [modulus], "transient": 0, "period_lcm": modulus,
                "passed": ref.certificate_passes([modulus], k)}

    def run(probe: Probe) -> dict:
        p = probe.call("constructions.build", cons.build_det_counter, modulus, 2 * modulus)
        chain = probe.call("core.symbol_chain", core.stable_symbol_chain, p, 1)
        return _classify(probe, chain, k)

    return Job("certify.markov.counter", None, modulus * modulus, run,
               partial(_chain_problems, expected), f"counter {modulus}, k={k} -> {expected}")


def random_chain_job(rng: np.random.Generator) -> Job:
    chain, expected = ref.random_chain(rng)
    k = int(rng.integers(0, 3))
    expected = {"periods": expected["periods"], "transient": expected["transient"],
                "period_lcm": expected["period_lcm"],
                "passed": ref.certificate_passes(expected["periods"], k)}
    return Job("certify.markov.random", None, chain.size,
               lambda probe: _classify(probe, chain, k), partial(_chain_problems, expected),
               f"chain {np.flatnonzero(chain).tolist()}, k={k} -> {expected}")


def _classify(probe: Probe, chain: np.ndarray, k: int) -> dict:
    dec = probe.call("markov.classify", markov.classify_states, chain)
    probe.count("markov.states", dec.states)
    cert = probe.call("markov.certificate", markov.period_lcm_certificate, dec, k)
    return {"answer": {"periods": list(dec.periods), "transient": len(dec.transient),
                       "period_lcm": dec.period_lcm, "passed": cert.passed}}


def _chain_problems(expected: dict, out: dict) -> list[str]:
    problems: list[str] = []
    _compare(problems, "chain", out["answer"], expected)
    return problems


REPORTS = (
    ("separation-quantum-classical", {"k": 0, "n": 4}),
    ("separation-quantum-classical", {"k": 0, "n": 8}),
    ("separation-quantum-classical", {"k": 1, "n": 6}),
    ("separation-nondet", {"n": 8}),
    ("separation-nondet", {"n": 14}),
    ("hierarchy-small", {"d_min": 2, "d_max": 6}),
    ("hierarchy-small", {"d_min": 2, "d_max": 8}),
    ("hierarchy-large", {"d": 11, "n": 12}),
    ("hierarchy-large", {"d": 11, "n": 16}),
    ("markov-analysis", {"k": 1}),
    ("markov-analysis", {"k": 3}),
)
_TEXT_COLUMNS = ("claim", "reason")


def _report_closed_form(task: str, params: dict, table) -> list[str]:
    """Row values the paper fixes, independent of the recorded answer."""
    col = {h: i for i, h in enumerate(table.headers)}
    problems = []
    if task == "separation-quantum-classical" and params["k"] == 0:
        # width-2 quantum equals the classical floor 2: not a separation
        if table.rows[0][col["verdict"]] != reports.INCONCLUSIVE:
            problems.append("k = 0 quantum row must be inconclusive")
    if task == "separation-nondet" and table.rows[1][col["oracle_value"]] != params["n"] // 2 + 1:
        problems.append("NotO exact width must be n/2 + 1")
    if task == "hierarchy-small":
        for row, d in zip(table.rows, range(params["d_min"], params["d_max"] + 1)):
            if (row[col["constructed_width"]], row[col["oracle_value"]]) != (d, d):
                problems.append(f"MOD {d} widths must both be {d}")
    if task == "markov-analysis" and not table.all_hold:
        problems.append("both period certificates must agree with their expectation")
    return problems


def report_job(task: str, params: dict, answers: dict | None) -> Job:
    key = f"certify.report/{task}/" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    recorded = _recorded(answers, key)

    def run(probe: Probe) -> dict:
        table = probe.call("reports.run_report", reports.run_report, task, **params)
        probe.count("reports.run_report.calls", 1)
        keep = [i for i, h in enumerate(table.headers) if h not in _TEXT_COLUMNS]
        rows = [[row[i] for i in keep] for row in table.rows]
        return {"table": table, "answer": {"rows": rows, "all_hold": table.all_hold}}

    def check(out: dict) -> list[str]:
        problems = _report_closed_form(task, params, out["table"])
        _compare(problems, "recorded answer", out["answer"], recorded)
        return problems

    return Job("certify.report", key, 0, run, check, f"{key} -> {recorded}")


def certify_keyed(answers: dict | None) -> list[Job]:
    jobs = [subfunction_job(fam, n, answers) for fam in SUBFUNCTION_FAMILIES
            for n in SUBFUNCTION_N if fam[0] != "not_pal" or n <= NOT_PAL_MAX_N]
    jobs += [stable_job(s, answers) for s in STABLE_SEARCHES]
    jobs += [report_job(task, params, answers) for task, params in REPORTS]
    jobs += [partial_mod_exact_job(n, answers) for n in PARTIAL_MOD_N]
    return jobs


#: n of the random total tables given to the partition search, one per slot
EXACT_N = (5, 6, 7, 8)
#: the subfunction counts of a pass: one job at each n = 16..22
SUBFUNCTION_PLAN = (("not_pal", 16), ("not_o", 17), ("mod_count(5)", 18), ("eqs(8)", 19),
                    ("not_o_prefix(12)", 20), ("not_o", 21), ("mod_count(5)", 22))
CERTIFY_ROUNDS = len(STABLE_SEARCHES)


def certify_pass(rng: np.random.Generator, answers: dict) -> list[Job]:
    """Per round: the partition search on random total tables at n = 5..8
    and on PartialMOD(1, n), one stable search and one Markov chain.  Once
    per pass: the subfunction counts of ``SUBFUNCTION_PLAN``, every report
    and a random table past the partial oracle's n_cap."""
    jobs = []
    for r in range(CERTIFY_ROUNDS):
        jobs += [total_exact_job(rng, n) for n in EXACT_N]
        jobs.append(partial_mod_exact_job(PARTIAL_MOD_N[r % len(PARTIAL_MOD_N)], answers))
        jobs.append(stable_job(STABLE_SEARCHES[r], answers))
        if r % 2 == 0:
            jobs.append(counter_chain_job(int(rng.integers(2, 17)), int(rng.integers(0, 3))))
        else:
            jobs.append(random_chain_job(rng))
    families = {fam[0]: fam for fam in SUBFUNCTION_FAMILIES}
    jobs += [subfunction_job(families[name], n, answers) for name, n in SUBFUNCTION_PLAN]
    jobs += [report_job(task, params, answers) for task, params in REPORTS]
    jobs.append(total_exact_job(rng, 13))
    return _shuffled(jobs)


def build_pass(workload: str, seed: int, answers: dict) -> list[Job]:
    """The seeded pass of one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"verify": verify_pass, "order-search": order_pass,
            "certify": certify_pass}[workload]
    return make(rng, answers)


def keyed_jobs(workload: str, answers: dict | None) -> list[Job]:
    """Every job whose answer is recorded in ``answers.json``."""
    return {"verify": verify_keyed, "order-search": order_keyed,
            "certify": certify_keyed}[workload](answers)
