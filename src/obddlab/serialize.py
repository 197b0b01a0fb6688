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
The ``stable`` line is written from :attr:`~obddlab.core.ObddProgram.stable`,
which is read off the levels.  On decoding, ``stable 1`` is a claim that
is checked once the program validates: levels that do not repeat one
transition pair fail at the ``stable`` line.  ``stable 0`` claims nothing.

Constructions repeat a few level arrays across many levels, and the codec
keeps that sharing.  The encoder renders each distinct level object once
and repeats its lines wherever the program repeats the object.  The decoder
parses each distinct payload text once, and levels whose two payloads
repeat an earlier level's decode to that level's array object, so a stable
program decodes to one shared array.

The decoder's Python work is per distinct payload, not per token.  A level
line is compared as text with the expected ``level {j} symbol {s}``; only a
line that differs is tokenized, so other spellings (extra spaces, tabs,
``01``) are still accepted.  A payload is keyed by its joined lines, and a
new one is parsed in one pass over all of them (a relation becomes row
lengths and flat targets, stored by :func:`obddlab.core._relation`).  That
pass is the only parser that builds values.  When it refuses a payload, or
the document ends inside one, each line is then checked on its own only to
name the first bad one; that check builds nothing.  Errors and their line
numbers are thus those of a line-by-line parse: a repeated payload is
reused only after it parsed cleanly.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    KINDS,
    ObddProgram,
    VariableOrder,
    level_map,
    level_stochastic,
    level_unitary,
    _relation,
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
    """The content lines of a document, stripped; blank lines and ``#``
    comments are skipped.  A line's number is its position plus one unless
    some line was skipped; only then is a table of numbers kept."""

    def __init__(self, text: str):
        self.lines = tuple(map(str.strip, text.splitlines()))
        self.end = len(self.lines) + 1  # the line number of a missing line
        self.linenos = None
        if "#" in text or not all(self.lines):
            kept = [i for i, line in enumerate(self.lines) if line and line[0] != "#"]
            if len(kept) < len(self.lines):
                self.linenos = [i + 1 for i in kept]
                self.lines = tuple(map(self.lines.__getitem__, kept))
        self.pos = 0

    def lineno(self, pos: int) -> int:
        """Line number of the line at ``pos``."""
        return pos + 1 if self.linenos is None else self.linenos[pos]

    def ended(self, what: str) -> ProgramFormatError:
        """The error for a document that ends where ``what`` was expected."""
        return ProgramFormatError(self.end, f"unexpected end of document, expected {what}")

    def next_line(self, what: str) -> tuple[int, str]:
        if self.pos == len(self.lines):
            raise self.ended(what)
        self.pos += 1
        return self.lineno(self.pos - 1), self.lines[self.pos - 1]

    def keyword(self, key: str) -> tuple[int, list[str]]:
        lineno, line = self.next_line(f"'{key}'")
        parts = line.split()
        if parts[0] != key:
            raise ProgramFormatError(lineno, f"expected '{key}', got {parts[0]!r}")
        return lineno, parts[1:]


def _ints(lineno: int, tokens: list[str], what: str) -> list[int]:
    try:
        return list(map(int, tokens))
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
    including content after ``end`` (blank lines and ``#`` comments aside)
    and levels whose dense transition array would exceed
    ``_MAX_LEVEL_ENTRIES`` entries (rejected at the ``widths`` line, before
    any allocation); validation failures raise
    :class:`~obddlab.core.InvalidProgramError` naming the level.  A valid
    program whose levels ``stable 1`` misdescribes raises
    :class:`ProgramFormatError` at that line.
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
    stable_line = r.lineno(r.pos - 1)
    if stable not in (0, 1):
        raise ProgramFormatError(stable_line, f"stable must be 0 or 1, got {stable}")

    # a payload is parsed the first time its text appears, and a level whose
    # two payloads repeat an earlier level's becomes that level's array
    parsed: dict[tuple, object] = {}
    arrays: dict[tuple, np.ndarray] = {}
    levels = []
    for j in range(1, n + 1):
        w_in, w_out = widths[j - 1], widths[j]
        count = 1 if kind == "deterministic" else w_in if kind == "nondeterministic" else w_out
        # a payload's key: the widths its parse depends on (a deterministic
        # map's range is checked by validation), then its lines, joined
        shape = (w_in, None if kind == "deterministic" else w_out)
        keys = []
        for sym in (0, 1):
            header = _level_line(r, j, sym)
            key = shape + ("\n".join(r.lines[r.pos:r.pos + count]),)
            if key not in parsed:
                parsed[key] = _parse_new_payload(r, kind, count, w_in, w_out, header)
            r.pos += count
            keys.append(key)
        key = tuple(keys)
        if key not in arrays:
            arrays[key] = _combine(kind, [parsed[k] for k in keys], w_out)
        levels.append(arrays[key])
    lineno, toks = r.keyword("end")
    if toks:
        raise ProgramFormatError(lineno, f"'end' takes no values, got {toks!r}")
    if r.pos < len(r.lines):
        raise ProgramFormatError(r.lineno(r.pos), "content after 'end'")

    p = ObddProgram(
        kind=kind, order=order, widths=tuple(widths), levels=tuple(levels),
        initial=initial, accept=frozenset(accept),
    )
    p.require_valid()
    if stable and not p.stable:
        raise ProgramFormatError(stable_line, "stable 1, but the levels are not one "
                                              "repeated transition pair")
    return p


def _level_line(r: _Reader, j: int, sym: int) -> str:
    """Read the line ``level {j} symbol {sym}`` and return it in that
    spelling.  Only a line spelled otherwise is tokenized: another spelling
    of it, such as ``level 01 symbol  0``, is accepted, anything else
    raises."""
    header = f"level {j} symbol {sym}"
    if r.pos < len(r.lines) and r.lines[r.pos] == header:
        r.pos += 1
        return header
    lineno, toks = r.keyword("level")
    if len(toks) != 3 or _ints(lineno, toks[:1], "level") != [j] or \
            toks[1] != "symbol" or _ints(lineno, toks[2:], "symbol") != [sym]:
        raise ProgramFormatError(lineno, f"expected '{header}'")
    return header


def _parse_new_payload(r: _Reader, kind: str, count: int, w_in: int, w_out: int, where: str):
    """The value of the payload of ``count`` lines at ``r.pos``, seen for
    the first time.  If the one pass refuses it, or the document ends
    inside it, the first bad line is named; a truncated payload is checked
    as far as it goes before its end is reported."""
    start = r.pos
    lines = r.lines[start:start + count]
    if len(lines) == count:
        value = _parse_payload(kind, lines, w_in, w_out)
        if value is not None:
            return value
    for s, line in enumerate(lines):
        problem = _row_problem(kind, s, line, w_in, w_out)
        if problem is not None:
            raise ProgramFormatError(r.lineno(start + s), f"{where}: {problem}")
    if len(lines) < count:
        raise r.ended(f"{where} {_ROW[kind]}")
    raise AssertionError(f"{where}: the one-pass parse refused a payload with no bad line")


def _parse_payload(kind: str, lines: tuple[str, ...], w_in: int, w_out: int):
    """The value of a payload, from one pass over all its lines, or None if
    any line is malformed (:func:`_row_problem` then names the first): a
    deterministic map's targets, a relation's row lengths and flat targets,
    or a matrix.  It accepts a payload exactly when :func:`_row_problem`
    finds no bad line in it."""
    try:
        if kind == "deterministic":
            targets = list(map(int, lines[0].split()))
            fits = len(targets) == w_in and \
                _NODE_INDEX.min <= min(targets) and max(targets) <= _NODE_INDEX.max
            return targets if fits else None
        rows = list(map(str.split, lines))
        if kind == "nondeterministic":
            if ["-"] in rows:
                rows = [[] if row == ["-"] else row for row in rows]
            targets = list(map(int, itertools.chain.from_iterable(rows)))
            if targets and not (0 <= min(targets) and max(targets) < w_out):
                return None
            return list(map(len, rows)), targets
        if set(map(len, rows)) != {w_in}:
            return None
        tokens = list(itertools.chain.from_iterable(rows))
        if kind == "probabilistic":
            return np.array(list(map(float, tokens))).reshape(w_out, w_in)
        # every entry is one "re,im" pair, so the pieces alternate re and im
        if set(map(str.count, tokens, itertools.repeat(","))) != {1}:
            return None
        parts = list(map(float, ",".join(tokens).split(",")))
        return np.array(parts).view(complex).reshape(w_out, w_in)
    except ValueError:
        return None


def _row_problem(kind: str, s: int, line: str, w_in: int, w_out: int) -> str | None:
    """What is wrong with line ``s`` of a payload, or None if it is a good
    row.  It checks a line the way :func:`_parse_payload` reads it, to name
    the first bad line of a payload that pass refused; it builds no value."""
    tokens = line.split()
    if kind in ("deterministic", "nondeterministic"):
        if tokens == ["-"] and kind == "nondeterministic":
            return None
        try:
            targets = list(map(int, tokens))
        except ValueError:
            return f"expected integers, got {tokens!r}"
        if kind == "nondeterministic":
            bad = [u for u in targets if not 0 <= u < w_out]
            return f"node {s} maps to {bad} outside 0..{w_out - 1}" if bad else None
        if len(targets) != w_in:
            return f"expected {w_in} targets, got {len(targets)}"
        # smaller out-of-range targets are left to validation, which names
        # the node; these would not fit in the level's array
        if not _NODE_INDEX.min <= min(targets) <= max(targets) <= _NODE_INDEX.max:
            return f"a target outside {_NODE_INDEX.min}..{_NODE_INDEX.max}"
    else:
        if len(tokens) != w_in:
            return f"expected {w_in} entries, got {len(tokens)}"
        try:
            for t in tokens:
                if kind == "probabilistic":
                    float(t)
                else:
                    re, im = t.split(",")
                    float(re), float(im)
        except ValueError:
            return "malformed numeric entry"
    return None


def _combine(kind: str, per_symbol: list, w_out: int) -> np.ndarray:
    if kind == "deterministic":
        return level_map(*per_symbol)
    if kind == "nondeterministic":
        (counts0, targets0), (counts1, targets1) = per_symbol
        return _relation(counts0 + counts1, targets0 + targets1, w_out)
    if kind == "probabilistic":
        return level_stochastic(*per_symbol)
    return level_unitary(*per_symbol)
