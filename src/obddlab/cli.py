"""Command-line interface.

Verbs: ``build``, ``simulate``, ``verify``, ``minwidth``, ``report``,
``markov``.  Exit codes: 0 on success (or a holding verdict), 2 when a
verify/report/markov verdict is negative or inconclusive, 1 on errors.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import constructions as cons
from . import functions as fz
from .core import (
    AcceptanceMode,
    ObddError,
    VariableOrder,
    computes,
    natural_order,
    nobdd_to_obdd_subset,
    pairing_order,
    program_width,
    simulate,
    stable_symbol_chain,
)
from .oracles import (
    distinguishability_lower_bound,
    min_width_over_orders,
    partial_min_width_exact,
    stable_exhaustive_search,
    subfunction_widths,
)
from .markov import classify_states, period_lcm_certificate
from .reports import REPORT_TASKS, run_report
from .serialize import decode_program, encode_program

_BUILDERS = {
    ("partialmod", "quantum"): cons.build_quantum_partialmod,
    ("partialmod", "deterministic"): cons.build_det_partialmod,
    ("mod", "deterministic"): cons.build_det_mod,
    ("notok", "nondeterministic"): cons.build_nobdd_noto_fingerprint,
    ("eqs", "deterministic"): cons.build_det_eqs,
    ("noteqs", "nondeterministic"): cons.build_nobdd_noteqs_fingerprint,
    ("notpal", "deterministic"): lambda k, n: cons.build_det_notpal(n),
    ("noto", "quantum"): lambda k, n: cons.build_quantum_nondet_noto(n),
}


class _Parser(argparse.ArgumentParser):
    # exit code 1 on usage errors (argparse's default of 2 is reserved for
    # inconclusive verdicts here)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_order(text: str, n: int) -> VariableOrder:
    if text == "natural":
        return natural_order(n)
    if text == "pairing":
        return pairing_order(n)
    return VariableOrder(n, tuple(int(t) for t in text.split(",")))


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return decode_program(fh.read())


def _make_function(args) -> fz.FunctionSpec:
    if getattr(args, "table", None):
        with open(args.table, "r", encoding="utf-8") as fh:
            return fz.read_truth_table(fh)
    if args.function is None or args.n is None:
        raise ValueError("--function and --n (or --table) are required")
    return fz.make_function(args.function, k=args.k, n=args.n)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    key = (args.function.replace("_", "").lower(), args.model)
    if key not in _BUILDERS:
        known = ", ".join(f"{f}/{m}" for f, m in sorted(_BUILDERS))
        raise ValueError(f"no construction for {key[0]!r} with model {key[1]!r} (have: {known})")
    fz.make_function(key[0], k=args.k, n=args.n)  # names a missing or stray --k
    program = _BUILDERS[key](args.k, args.n)
    if args.determinize:
        program = nobdd_to_obdd_subset(program)
    widths = program_width(program)
    _emit(encode_program(program), args.out)
    print(f"built {key[0]} ({program.kind}), n={program.n}, "
          f"width={widths.max_width}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    program = _load_program(args.program)
    print(format(simulate(program, args.input), ".12g"))
    return 0


def _cmd_verify(args) -> int:
    program = _load_program(args.program)
    f = _make_function(args)
    mode_name = args.mode.replace("-", "_")
    if mode_name == "bounded_error":
        mode = AcceptanceMode.bounded_error(args.epsilon)
    elif mode_name == "nondeterministic":
        mode = AcceptanceMode.nondeterministic(args.cutoff)
    else:
        mode = AcceptanceMode(mode_name)
    result = computes(program, f, mode)
    if result.ok:
        print(f"yes: program computes {f.name} (n={f.n}) in {args.mode} mode")
        return 0
    print(f"no: counterexample {result.counterexample} ({result.reason})")
    return 2


def _report_lines(report) -> str:
    per = " ".join(map(str, report.per_level))
    lines = [
        f"kind: {report.kind}",
        f"method: {report.method}",
        f"per-level: {per}",
        f"max width: {report.max_width}",
        "order: " + ",".join(map(str, report.order)),
    ]
    return "\n".join(lines) + "\n"


def _cmd_minwidth(args) -> int:
    f = _make_function(args)
    if args.oracle == "stable-search":
        if args.width is None:
            raise ValueError("--width is required for --oracle stable-search")
        found = stable_exhaustive_search(f, args.width, args.kind)
        if found is None:
            print(f"none: no stable ID {args.kind} program of width {args.width} computes {f.name}")
        else:
            print(f"found: stable ID {args.kind} program of width {args.width}")
            _emit(encode_program(found), args.out)
        return 0
    order = _parse_order(args.order, f.n)
    if args.oracle == "subfunctions":
        report = subfunction_widths(f, order)
    elif args.oracle == "lower-bound":
        report = distinguishability_lower_bound(f, order)
    elif args.oracle == "min-over-orders":
        report = min_width_over_orders(f)
    elif f.total:
        report = subfunction_widths(f, order)
    else:
        report = partial_min_width_exact(f, order)
    _emit(_report_lines(report), args.out)
    return 0


def _cmd_report(args) -> int:
    # each task takes the options named like its parameters; options left
    # unset fall back to the task's own defaults
    params = {}
    for name, param in inspect.signature(REPORT_TASKS[args.task]).parameters.items():
        value = getattr(args, name)
        if value is not None:
            params[name] = value
        elif param.default is inspect.Parameter.empty:
            raise ValueError(f"--{name.replace('_', '-')} is required for {args.task}")
    table = run_report(args.task, **params)
    _emit(table.to_csv() if args.format == "csv" else table.to_markdown(), args.out)
    return 0 if table.all_hold else 2


def _cmd_markov(args) -> int:
    program = _load_program(args.program)
    chain = stable_symbol_chain(program, args.symbol)
    dec = classify_states(chain)
    print(f"states: {dec.states}")
    print(f"transient: {sorted(dec.transient) if dec.transient else 'none'}")
    for i, (cls, period, cyc) in enumerate(
        zip(dec.ergodic_classes, dec.periods, dec.cyclic_subsets)
    ):
        subsets = " ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in cyc)
        print(f"class {i}: states {sorted(cls)}, period {period}, cyclic subsets {subsets}")
    print(f"period lcm D = {dec.period_lcm}")
    if args.k is None:
        return 0
    cert = period_lcm_certificate(dec, args.k)
    print(f"certificate(k={args.k}): {'pass' if cert.passed else 'fail'} ({cert.reason})")
    return 0 if cert.passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="obddlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    b = sub.add_parser("build", parents=[], help="build a construction and print its document")
    b.add_argument("--function", required=True,
                   help="partialmod | mod | notok | eqs | noteqs | notpal | noto")
    b.add_argument("--model", required=True,
                   choices=["deterministic", "nondeterministic", "quantum"])
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--determinize", action="store_true",
                   help="apply the subset construction to a nondeterministic build")
    b.add_argument("--out", default=None)
    b.set_defaults(run=_cmd_build)

    s = sub.add_parser("simulate", help="acceptance probability of a program on one input")
    s.add_argument("program", help="program document path")
    s.add_argument("input", help="input bits, e.g. 0110")
    s.set_defaults(run=_cmd_simulate)

    v = sub.add_parser("verify", help="check a program against a function family")
    v.add_argument("program")
    v.add_argument("--function", default=None)
    v.add_argument("--table", default=None, help="truth-table file instead of --function")
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--mode", required=True,
                   choices=["deterministic", "exact", "bounded-error", "nondeterministic"])
    v.add_argument("--epsilon", type=float, default=None)
    v.add_argument("--cutoff", type=float, default=0.0)
    v.set_defaults(run=_cmd_verify)

    m = sub.add_parser("minwidth", help="run a width oracle on a function")
    m.add_argument("--function", default=None)
    m.add_argument("--table", default=None)
    m.add_argument("--k", type=int, default=None)
    m.add_argument("--n", type=int, default=None)
    m.add_argument("--order", default="natural", help="natural | pairing | comma list")
    m.add_argument("--oracle", default="exact",
                   choices=["exact", "subfunctions", "lower-bound", "min-over-orders",
                            "stable-search"])
    m.add_argument("--width", type=int, default=None, help="width for --oracle stable-search")
    m.add_argument("--kind", default="deterministic",
                   choices=["deterministic", "nondeterministic"],
                   help="program kind for --oracle stable-search")
    m.add_argument("--out", default=None)
    m.set_defaults(run=_cmd_minwidth)

    r = sub.add_parser("report", help="emit a separation/hierarchy table")
    r.add_argument("--task", required=True, choices=list(REPORT_TASKS))
    # one option per parameter name of any task (_cmd_report)
    for name in dict.fromkeys(name for task in REPORT_TASKS.values()
                              for name in inspect.signature(task).parameters):
        r.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)
    r.add_argument("--format", default="md", choices=["md", "csv"])
    r.add_argument("--out", default=None)
    r.set_defaults(run=_cmd_report)

    mk = sub.add_parser("markov", help="classify a stable program's symbol chain")
    mk.add_argument("program")
    mk.add_argument("--symbol", type=int, default=1, choices=[0, 1])
    mk.add_argument("--k", type=int, default=None,
                    help="also run the period certificate for this k")
    mk.set_defaults(run=_cmd_markov)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ObddError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
