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
Decoding validates the program and reports the offending level; the
verdict is kept on the program, so later checks on it do not repeat it.

Constructions repeat a few level arrays across many levels, and the codec
keeps that sharing.  The encoder renders each distinct level object once
and repeats its lines wherever the program repeats the object.  The decoder
parses each distinct payload text once, and levels whose two payloads
repeat an earlier level's decode to that level's array object, so a stable
program decodes to one shared array.  Errors and their line numbers are
those of a line-by-line parse: a repeated payload is reused only after it
parsed cleanly.
"""

from __future__ import annotations

import numpy as np

from .core import (
    KINDS,
    ObddProgram,
    VariableOrder,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
)

__all__ = ["encode_program", "decode_program", "ProgramFormatError"]

_MAGIC = "obddprogram 1"

#: most entries a decoded level's dense ``(2, w_out, w_in)`` array may hold
_MAX_LEVEL_ENTRIES = 1 << 24

#: range of a deterministic target that ``level_map`` can store
_NODE_INDEX = np.iinfo(np.intp)


class ProgramFormatError(ValueError):
    """Malformed program document; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


#: how each kind renders one row of a level's payload
_FORMAT = {"probabilistic": "{:.17g}".format,
           "quantum": "{0.real:.17g},{0.imag:.17g}".format}

#: what each payload line of a kind holds, for end-of-document errors
_ROW = {"deterministic": "map", "nondeterministic": "relation row",
        "probabilistic": "matrix row", "quantum": "matrix row"}


def _render(kind: str, t: np.ndarray) -> tuple[str, str]:
    """The payloads of one level on symbol 0 and on symbol 1."""
    if kind == "deterministic":
        return tuple(" ".join(map(str, targets)) for targets in t.tolist())
    if kind == "nondeterministic":
        # one nonzero over the source-major view lists every source's
        # targets in order, symbol 0 first
        by_source = t.transpose(0, 2, 1)
        names = list(map(str, np.nonzero(by_source)[2].tolist()))
        ends = np.cumsum(np.count_nonzero(by_source, axis=2)).tolist()
        rows = [" ".join(names[a:b]) or "-" for a, b in zip([0] + ends, ends)]
        w_in = t.shape[2]
        return "\n".join(rows[:w_in]), "\n".join(rows[w_in:])
    fmt = _FORMAT[kind]
    return tuple("\n".join(" ".join(map(fmt, row)) for row in m) for m in t.tolist())


def encode_program(p: ObddProgram) -> str:
    """Render a validated program as a text document.

    Each distinct level object is rendered once; a level that repeats it
    repeats its lines."""
    p.require_valid()
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
    rendered: dict[int, tuple[str, str]] = {}
    for j, t in enumerate(p.levels, start=1):
        if id(t) not in rendered:
            rendered[id(t)] = _render(p.kind, t)
        for sym, payload in enumerate(rendered[id(t)]):
            out.append(f"level {j} symbol {sym}")
            out.append(payload)
    out.append("end")
    return "\n".join(out) + "\n"


class _Reader:
    """The content lines of a document, stripped, with their line numbers;
    blank lines and ``#`` comments are skipped."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.end = len(lines) + 1  # the line number of a missing line
        numbered = [(i, line) for i, line in enumerate(map(str.strip, lines), start=1)
                    if line and line[0] != "#"]
        self.linenos, self.lines = tuple(zip(*numbered)) or ((), ())
        self.pos = 0

    @property
    def lineno(self) -> int:
        """Line number of the last line read."""
        return self.linenos[self.pos - 1]

    def next_line(self, what: str) -> tuple[int, str]:
        if self.pos == len(self.lines):
            raise ProgramFormatError(self.end, f"unexpected end of document, expected {what}")
        self.pos += 1
        return self.linenos[self.pos - 1], self.lines[self.pos - 1]

    def take(self, count: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The next ``count`` lines and their numbers; fewer at the end."""
        start, self.pos = self.pos, min(self.pos + count, len(self.lines))
        return self.linenos[start:self.pos], self.lines[start:self.pos]

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
        raise ProgramFormatError(r.lineno, f"stable must be 0 or 1, got {stable}")

    # a payload is parsed the first time its text appears, and a level whose
    # two payloads repeat an earlier level's becomes that level's array
    parsed: dict[tuple, list] = {}
    arrays: dict[tuple, np.ndarray] = {}
    levels = []
    for j in range(1, n + 1):
        keys = []
        for sym in (0, 1):
            lineno, toks = r.keyword("level")
            if _ints(lineno, toks[:1], "level") != [j] or toks[1:2] != ["symbol"] or \
                    _ints(lineno, toks[2:3], "symbol") != [sym]:
                raise ProgramFormatError(lineno, f"expected 'level {j} symbol {sym}'")
            keys.append(_read_payload(r, kind, widths[j - 1], widths[j], j, sym, parsed))
        key = tuple(keys)
        if key not in arrays:
            arrays[key] = _combine(kind, [parsed[k] for k in keys], widths[j])
        levels.append(arrays[key])
    r.keyword("end")

    p = ObddProgram(
        kind=kind, order=order, widths=tuple(widths), levels=tuple(levels),
        initial=initial, accept=frozenset(accept), stable=bool(stable),
    )
    p.require_valid()
    return p


def _read_payload(r: _Reader, kind: str, w_in: int, w_out: int, j: int, sym: int,
                  parsed: dict[tuple, list]) -> tuple:
    """Read one payload and return its key in ``parsed``: its lines and the
    widths its parse depends on (a deterministic map's range is checked by
    validation, so its target width is not part of the key)."""
    where = f"level {j} symbol {sym}"
    count = 1 if kind == "deterministic" else w_in if kind == "nondeterministic" else w_out
    linenos, lines = r.take(count)
    if len(lines) < count:
        _parse_rows(kind, linenos, lines, w_in, w_out, where)  # a bad row fails first
        r.next_line(f"{where} {_ROW[kind]}")  # raises: the document ends too soon
    key = (w_in, None if kind == "deterministic" else w_out, lines)
    if key not in parsed:
        parsed[key] = _parse_rows(kind, linenos, lines, w_in, w_out, where)
    return key


def _parse_rows(kind: str, linenos: tuple[int, ...], lines: tuple[str, ...], w_in: int,
                w_out: int, where: str) -> list:
    rows = []
    for s, (lineno, line) in enumerate(zip(linenos, lines)):
        if kind == "deterministic":
            targets = _ints(lineno, line.split(), where)
            if len(targets) != w_in:
                raise ProgramFormatError(
                    lineno, f"{where}: expected {w_in} targets, got {len(targets)}")
            # smaller out-of-range targets are left to validation, which
            # names the node; these would not fit in the level's array
            if not _NODE_INDEX.min <= min(targets) <= max(targets) <= _NODE_INDEX.max:
                raise ProgramFormatError(
                    lineno, f"{where}: a target outside {_NODE_INDEX.min}..{_NODE_INDEX.max}")
            rows.append(targets)
        elif kind == "nondeterministic":
            targets = [] if line == "-" else _ints(lineno, line.split(), where)
            bad = [u for u in targets if not 0 <= u < w_out]
            if bad:
                raise ProgramFormatError(
                    lineno, f"{where}: node {s} maps to {bad} outside 0..{w_out - 1}")
            rows.append(targets)
        else:
            tokens = line.split()
            if len(tokens) != w_in:
                raise ProgramFormatError(
                    lineno, f"{where}: expected {w_in} entries, got {len(tokens)}")
            try:
                if kind == "probabilistic":
                    rows.append(list(map(float, tokens)))
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
        return level_map(per_symbol[0][0], per_symbol[1][0])
    if kind == "nondeterministic":
        return level_relation(per_symbol[0], per_symbol[1], w_out)
    if kind == "probabilistic":
        return level_stochastic(per_symbol[0], per_symbol[1])
    return level_unitary(per_symbol[0], per_symbol[1])
