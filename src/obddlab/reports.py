"""Report generation: separation and hierarchy tables.

Each task rebuilds its programs, re-derives their widths live via
:func:`~obddlab.core.program_width`, runs the relevant oracle, and emits
one verdict per row: ``separation holds`` when the live numbers instantiate
the claimed relation, ``inconclusive`` otherwise.  Tables render as
markdown and CSV with identical numeric content.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields

from . import constructions as cons
from . import functions as fz
from .core import CapExceededError, program_width, stable_symbol_chain, _integers
from .markov import classify_states, period_lcm_certificate
from .oracles import (
    partial_min_width_exact,
    stable_exhaustive_search,
    subfunction_widths,
)

__all__ = ["SeparationRow", "ReportTable", "run_report", "REPORT_TASKS"]

HOLDS = "separation holds"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeparationRow:
    """One comparison between a constructed width and an oracle value."""

    model: str
    function: str
    constructed_width: int | None
    oracle_value: int
    oracle_kind: str  # exact | lower_bound
    verdict: str
    claim: str


@dataclass
class ReportTable:
    title: str
    headers: tuple[str, ...]
    rows: list[tuple]

    @property
    def all_hold(self) -> bool:
        if "verdict" not in self.headers:
            return True
        i = self.headers.index("verdict")
        return all(row[i] == HOLDS for row in self.rows)

    def _cells(self) -> list[list[str]]:
        return [[("-" if x is None else str(x)) for x in row] for row in self.rows]

    def to_markdown(self) -> str:
        widths = [len(h) for h in self.headers]
        cells = self._cells()
        for row in cells:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        def line(vals):
            return "| " + " | ".join(v.ljust(w) for v, w in zip(vals, widths)) + " |"
        out = [f"## {self.title}", "", line(self.headers),
               "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out.extend(line(row) for row in cells)
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self._cells())
        return buf.getvalue()


def _separation_table(title: str, rows: list[SeparationRow]) -> ReportTable:
    return ReportTable(
        title=title,
        headers=tuple(f.name for f in fields(SeparationRow)),
        rows=list(map(astuple, rows)),
    )


def _verdict(holds: bool) -> str:
    return HOLDS if holds else INCONCLUSIVE


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def report_separation_quantum_classical(k: int, n: int) -> ReportTable:
    """Exact quantum width 2 versus the classical width floor 2**(k+1)."""
    f = fz.partial_mod(k, n)
    k, n = f.k, f.n
    f_name = f"PartialMOD(k={k}, n={n})"
    oracle = partial_min_width_exact(f)
    floor = 1 << (k + 1)
    rows = []

    quantum = program_width(cons.build_quantum_partialmod(k, n)).max_width
    rows.append(SeparationRow(
        model="exact quantum", function=f_name,
        constructed_width=quantum, oracle_value=oracle.max_width, oracle_kind="exact",
        verdict=_verdict(quantum < oracle.max_width),
        claim="exact quantum construction is narrower than any deterministic program",
    ))

    counter = program_width(cons.build_det_partialmod(k, n)).max_width
    rows.append(SeparationRow(
        model="deterministic", function=f_name,
        constructed_width=counter, oracle_value=oracle.max_width, oracle_kind="exact",
        verdict=_verdict(counter == oracle.max_width == floor),
        claim=f"the width-{floor} counter meets the exact deterministic minimum",
    ))

    w = floor - 1
    try:
        verdict = _verdict(stable_exhaustive_search(f, w, "nondeterministic") is None)
        claim = f"exhaustive search finds no stable nondeterministic program of width {w}"
    except CapExceededError:
        verdict, claim = INCONCLUSIVE, f"width-{w} exhaustive search exceeds the enumeration cap"
    rows.append(SeparationRow(
        model="stable nondeterministic", function=f_name,
        constructed_width=None, oracle_value=floor, oracle_kind="lower_bound",
        verdict=verdict, claim=claim,
    ))

    chain = stable_symbol_chain(cons.build_det_partialmod(k, n), 1)
    cert = period_lcm_certificate(classify_states(chain), k)
    rows.append(SeparationRow(
        model="stable probabilistic (period certificate)", function=f_name,
        constructed_width=counter, oracle_value=floor, oracle_kind="lower_bound",
        verdict=_verdict(cert.passed),
        claim=(f"checks a necessary condition on the counter construction's own ones-chain "
               f"(a class period divisible by {floor}), not a bound over all stable "
               f"probabilistic programs"),
    ))
    return _separation_table(
        f"quantum versus classical width for {f_name}", rows
    )


def report_separation_nondet(n: int) -> ReportTable:
    """Quantum nondeterministic constant width versus classical growth."""
    f = fz.not_o(n)
    n = f.n
    f_name = f"NotO(n={n})"
    oracle = subfunction_widths(f)
    nobdd_floor = max(1, math.ceil(math.log2(oracle.max_width)))
    rows = []

    quantum = program_width(cons.build_quantum_nondet_noto(n)).max_width
    rows.append(SeparationRow(
        model="quantum nondeterministic", function=f_name,
        constructed_width=quantum, oracle_value=nobdd_floor, oracle_kind="lower_bound",
        verdict=_verdict(quantum < nobdd_floor),
        claim="constant-width quantum nondeterminism beats the classical floor",
    ))
    rows.append(SeparationRow(
        model="deterministic", function=f_name,
        constructed_width=None, oracle_value=oracle.max_width, oracle_kind="exact",
        verdict=_verdict(oracle.max_width == n // 2 + 1),
        claim=f"exact deterministic width equals n/2 + 1 = {n // 2 + 1}",
    ))
    rows.append(SeparationRow(
        model="nondeterministic (subset bound)", function=f_name,
        constructed_width=None, oracle_value=oracle.max_width, oracle_kind="exact",
        verdict=_verdict(2 ** 2 < oracle.max_width),
        claim="width-2 programs determinize to width <= 4 < the exact minimum",
    ))
    return _separation_table(
        f"quantum versus classical nondeterminism for {f_name}", rows
    )


def report_hierarchy_small(d_min: int = 2, d_max: int = 8) -> ReportTable:
    """Strict width steps at small widths, one row per modulus d (n = 2d)."""
    d_min, d_max = _integers("d_min and d_max", (d_min, d_max))
    if d_min > d_max:
        raise ValueError(f"empty modulus range: d_min = {d_min} > d_max = {d_max}")
    rows = []
    for d in range(d_min, d_max + 1):
        n = 2 * d
        constructed = program_width(cons.build_det_mod(d, n)).max_width
        oracle = subfunction_widths(fz.mod_count(d, n))
        rows.append(SeparationRow(
            model="deterministic / nondeterministic",
            function=f"MOD(k={d}, n={n})",
            constructed_width=constructed,
            oracle_value=oracle.max_width, oracle_kind="exact",
            verdict=_verdict(constructed == oracle.max_width == d),
            claim=f"counting mod {d} needs exactly width {d}, so width {d - 1} is strictly weaker",
        ))
    return _separation_table("small-width hierarchy via counting functions", rows)


def report_hierarchy_large(d: int = 11, n: int = 12) -> ReportTable:
    """Strict step from width floor(d/8)-1 to width d via shuffled equality."""
    d, n = _integers("d and n", (d, n))
    k = 4 * math.ceil(math.log2(d + 5)) - 12
    f_name = f"EQS(k={k}, n={n})"
    lower = 1 << (k // 4)
    threshold = d // 8 - 1
    rows = []

    constructed = program_width(cons.build_det_eqs(k, n)).max_width
    rows.append(SeparationRow(
        model="deterministic", function=f_name,
        constructed_width=constructed, oracle_value=lower, oracle_kind="lower_bound",
        verdict=_verdict(constructed <= d and lower > threshold),
        claim=(
            f"construction width {constructed} fits budget d = {d} while every program "
            f"needs more than floor(d/8) - 1 = {threshold} nodes"
        ),
    ))

    if n <= 16:
        oracle = subfunction_widths(fz.eqs(k, n))
        rows.append(SeparationRow(
            model="deterministic (oracle check)", function=f_name,
            constructed_width=constructed, oracle_value=oracle.max_width, oracle_kind="exact",
            verdict=_verdict(lower <= oracle.max_width <= constructed),
            claim="the exact oracle value sits between the stated bound and the construction",
        ))
    return _separation_table("large-width hierarchy via shuffled equality", rows)


def report_markov_analysis(k: int, n: int | None = None) -> ReportTable:
    """Period certificates for the exact-width counter and a one-narrower one."""
    k = _integers("k", (k,))[0]
    m = 1 << (k + 1)
    if n is None:
        n = 2 * m
    rows = []
    for modulus, expect_pass in ((m, True), (m - 1, False)):
        chain = stable_symbol_chain(cons.build_det_counter(modulus, n), 1)
        dec = classify_states(chain)
        cert = period_lcm_certificate(dec, k)
        agrees = cert.passed == expect_pass
        rows.append((
            f"counter mod {modulus} (symbol-1 chain)",
            dec.states,
            len(dec.transient),
            " ".join(map(str, dec.periods)),
            dec.period_lcm,
            "pass" if cert.passed else "fail",
            _verdict(agrees),
            cert.reason,
        ))
    return ReportTable(
        title=f"period certificates for counting mod 2**{k + 1}",
        headers=("chain", "states", "transient", "class periods", "period lcm",
                 f"certificate(k={k})", "verdict", "reason"),
        rows=rows,
    )


REPORT_TASKS = {
    "separation-quantum-classical": report_separation_quantum_classical,
    "separation-nondet": report_separation_nondet,
    "hierarchy-small": report_hierarchy_small,
    "hierarchy-large": report_hierarchy_large,
    "markov-analysis": report_markov_analysis,
}


def run_report(task: str, **params) -> ReportTable:
    """Dispatch a report task by name (see :data:`REPORT_TASKS`)."""
    if task not in REPORT_TASKS:
        raise ValueError(f"unknown report task {task!r} (choose from {sorted(REPORT_TASKS)})")
    return REPORT_TASKS[task](**params)
