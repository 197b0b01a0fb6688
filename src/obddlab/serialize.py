"""Text serialization of programs.

The document is line-oriented: a header of attribute lines, then one block
per (level, symbol) pair in order, then ``end``::

    obddprogram 1
    kind deterministic
    n 2
    order 0 1
    widths 1 2 2
    initial 0
    accept 0
    stable 0
    level 1 symbol 0
    0
    level 1 symbol 1
    1
    level 2 symbol 0
    0 1
    level 2 symbol 1
    1 0
    end

Payload shape follows the program kind: deterministic levels are one line
of target nodes (one per source); nondeterministic levels are one line per
source listing its target set (``-`` for the empty set); probabilistic
levels are the matrix, one row per line; quantum levels likewise with
entries written ``re,im``.  Numbers use 17 significant digits, so float
round trips are exact; classical programs round-trip bit-exactly.
Decoding validates the program and reports the offending level.
"""

from __future__ import annotations

import numpy as np

from .core import (
    InvalidProgramError,
    KINDS,
    ObddProgram,
    VariableOrder,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
    validate_program,
)

__all__ = ["encode_program", "decode_program", "ProgramFormatError"]

_MAGIC = "obddprogram 1"

#: most entries a decoded level's dense ``(2, w_out, w_in)`` array may hold
_MAX_LEVEL_ENTRIES = 1 << 24


class ProgramFormatError(ValueError):
    """Malformed program document; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def encode_program(p: ObddProgram) -> str:
    """Render a validated program as a text document."""
    report = validate_program(p)
    if not report.ok:
        raise InvalidProgramError("; ".join(report.violations))
    out = [
        _MAGIC,
        f"kind {p.kind}",
        f"n {p.n}",
        "order " + " ".join(map(str, p.order.perm)),
        "widths " + " ".join(map(str, p.widths)),
        f"initial {p.initial}",
        "accept " + (" ".join(map(str, sorted(p.accept))) if p.accept else "-"),
        f"stable {int(p.stable)}",
    ]
    for j in range(1, p.n + 1):
        t = p.level(j)
        for sym in (0, 1):
            out.append(f"level {j} symbol {sym}")
            tr = t[sym]
            if p.kind == "deterministic":
                out.append(" ".join(map(str, tr.tolist())))
            elif p.kind == "nondeterministic":
                for column in tr.T:
                    targets = np.flatnonzero(column).tolist()
                    out.append(" ".join(map(str, targets)) if targets else "-")
            elif p.kind == "probabilistic":
                for row in tr:
                    out.append(" ".join(_fmt(x) for x in row))
            else:
                for row in tr:
                    out.append(" ".join(f"{_fmt(x.real)},{_fmt(x.imag)}" for x in row))
    out.append("end")
    return "\n".join(out) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self, what: str) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            line = self.lines[self.pos - 1].strip()
            if line and not line.startswith("#"):
                return self.pos, line
        raise ProgramFormatError(len(self.lines) + 1, f"unexpected end of document, expected {what}")

    def keyword(self, key: str) -> tuple[int, list[str]]:
        lineno, line = self.next_line(f"'{key}'")
        parts = line.split()
        if parts[0] != key:
            raise ProgramFormatError(lineno, f"expected '{key}', got {parts[0]!r}")
        return lineno, parts[1:]


def _ints(lineno: int, tokens: list[str], what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ProgramFormatError(lineno, f"{what}: expected integers, got {tokens!r}")


def _int_line(r: _Reader, key: str) -> int:
    lineno, toks = r.keyword(key)
    if len(toks) != 1:
        raise ProgramFormatError(lineno, f"'{key}' takes one integer, got {len(toks)} values")
    return _ints(lineno, toks, key)[0]


def decode_program(text: str) -> ObddProgram:
    """Parse a document back into a program.

    Malformed text raises :class:`ProgramFormatError` with its line number,
    including levels whose dense transition array would exceed
    ``_MAX_LEVEL_ENTRIES`` entries (rejected at the ``widths`` line, before
    any allocation); validation failures raise
    :class:`~obddlab.core.InvalidProgramError` naming the level.
    """
    r = _Reader(text)
    lineno, line = r.next_line("header")
    if line != _MAGIC:
        raise ProgramFormatError(lineno, f"expected header {_MAGIC!r}")

    lineno, toks = r.keyword("kind")
    if len(toks) != 1 or toks[0] not in KINDS:
        raise ProgramFormatError(lineno, f"kind must be one of {KINDS}")
    kind = toks[0]
    n = _int_line(r, "n")
    lineno, toks = r.keyword("order")
    perm = _ints(lineno, toks, "order")
    if len(perm) != n:
        raise ProgramFormatError(lineno, f"expected {n} order entries, got {len(perm)}")
    try:
        order = VariableOrder(n, tuple(perm))
    except ValueError as e:
        raise ProgramFormatError(lineno, str(e))
    lineno, toks = r.keyword("widths")
    widths = _ints(lineno, toks, "widths")
    if len(widths) != n + 1:
        raise ProgramFormatError(lineno, f"expected {n + 1} widths, got {len(widths)}")
    if min(widths) < 1:
        raise ProgramFormatError(lineno, "widths must be positive")
    for j in range(1, n + 1):
        entries = 2 * widths[j - 1] * (1 if kind == "deterministic" else widths[j])
        if entries > _MAX_LEVEL_ENTRIES:
            raise ProgramFormatError(
                lineno, f"level {j}: {entries} transition entries exceed the bound "
                        f"{_MAX_LEVEL_ENTRIES}")
    initial = _int_line(r, "initial")
    lineno, toks = r.keyword("accept")
    accept = [] if toks == ["-"] else _ints(lineno, toks, "accept")
    stable = _int_line(r, "stable")
    if stable not in (0, 1):
        raise ProgramFormatError(r.pos, f"stable must be 0 or 1, got {stable}")

    levels = []
    for j in range(1, n + 1):
        per_symbol = []
        for sym in (0, 1):
            lineno, toks = r.keyword("level")
            if _ints(lineno, toks[:1], "level") != [j] or toks[1:2] != ["symbol"] or \
                    _ints(lineno, toks[2:3], "symbol") != [sym]:
                raise ProgramFormatError(lineno, f"expected 'level {j} symbol {sym}'")
            per_symbol.append(_read_payload(r, kind, widths[j - 1], widths[j], j, sym))
        levels.append(_combine(kind, per_symbol, widths[j]))
    r.keyword("end")

    p = ObddProgram(
        kind=kind, order=order, widths=tuple(widths), levels=tuple(levels),
        initial=initial, accept=frozenset(accept), stable=bool(stable),
    )
    report = validate_program(p)
    if not report.ok:
        raise InvalidProgramError("; ".join(report.violations))
    return p


def _read_payload(r: _Reader, kind: str, w_in: int, w_out: int, j: int, sym: int):
    where = f"level {j} symbol {sym}"
    if kind == "deterministic":
        lineno, line = r.next_line(f"{where} map")
        targets = _ints(lineno, line.split(), where)
        if len(targets) != w_in:
            raise ProgramFormatError(lineno, f"{where}: expected {w_in} targets, got {len(targets)}")
        return targets
    if kind == "nondeterministic":
        rows = []
        for s in range(w_in):
            lineno, line = r.next_line(f"{where} relation row")
            targets = [] if line == "-" else _ints(lineno, line.split(), where)
            bad = [u for u in targets if not 0 <= u < w_out]
            if bad:
                raise ProgramFormatError(
                    lineno, f"{where}: node {s} maps to {bad} outside 0..{w_out - 1}")
            rows.append(targets)
        return rows
    rows = []
    for _ in range(w_out):
        lineno, line = r.next_line(f"{where} matrix row")
        tokens = line.split()
        if len(tokens) != w_in:
            raise ProgramFormatError(lineno, f"{where}: expected {w_in} entries, got {len(tokens)}")
        try:
            if kind == "probabilistic":
                rows.append([float(t) for t in tokens])
            else:
                entries = []
                for t in tokens:
                    re, im = t.split(",")
                    entries.append(complex(float(re), float(im)))
                rows.append(entries)
        except (ValueError, TypeError):
            raise ProgramFormatError(lineno, f"{where}: malformed numeric entry")
    return rows


def _combine(kind: str, per_symbol: list, w_out: int) -> np.ndarray:
    if kind == "deterministic":
        return level_map(per_symbol[0], per_symbol[1])
    if kind == "nondeterministic":
        return level_relation(per_symbol[0], per_symbol[1], w_out)
    if kind == "probabilistic":
        return level_stochastic(per_symbol[0], per_symbol[1])
    return level_unitary(per_symbol[0], per_symbol[1])
