import random

import numpy as np
import pytest

from obddlab import (
    AcceptanceMode,
    InvalidProgramError,
    ObddProgram,
    VariableOrder,
    computes,
    core,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
    lift_deterministic,
    natural_order,
    program_width,
    programs_structurally_equal,
    simulate,
)
from obddlab.constructions import (
    build_det_counter,
    build_det_eqs,
    build_det_mod,
    build_det_notpal,
    build_det_partialmod,
    build_nobdd_noteqs_fingerprint,
    build_nobdd_noto_fingerprint,
    build_quantum_nondet_noto,
    build_quantum_partialmod,
)
from obddlab.core import KINDS
from obddlab.functions import mod_count
from obddlab.serialize import ProgramFormatError, decode_program, encode_program


ROUND_TRIP = [
    build_det_mod(3, 6),
    build_det_eqs(4, 8),
    build_det_notpal(5),
    build_nobdd_noto_fingerprint(4, 6),
    build_nobdd_noteqs_fingerprint(4, 8),
    lift_deterministic(build_det_mod(3, 6)),
    build_quantum_partialmod(1, 4),
    build_quantum_nondet_noto(5),
]


@pytest.mark.parametrize("program", ROUND_TRIP, ids=lambda p: f"{p.kind}-n{p.n}")
def test_round_trip_is_structural_identity(program):
    # 17 significant digits make float round trips exact, so this holds for
    # the vector kinds too, not only the classical ones
    decoded = decode_program(encode_program(program))
    assert programs_structurally_equal(decoded, program)


def test_round_trip_preserves_quantum_acceptance():
    p = build_quantum_partialmod(1, 4)
    q = decode_program(encode_program(p))
    for bits in ("1111", "1100", "0110", "1010"):
        assert abs(simulate(q, bits) - simulate(p, bits)) <= 1e-12


def test_round_trip_with_empty_accept_set():
    from dataclasses import replace

    p = replace(build_det_mod(3, 6), accept=frozenset())
    q = decode_program(encode_program(p))
    assert programs_structurally_equal(p, q)
    assert simulate(q, "111000") == 0.0


def test_decode_rejects_bad_header():
    with pytest.raises(ProgramFormatError):
        decode_program("not a program\n")


def test_decode_reports_line_numbers():
    text = encode_program(build_det_mod(2, 4))
    lines = text.splitlines()
    lines[1] = "kind sideways"
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines))
    assert err.value.lineno == 2


def test_decode_rejects_wrong_payload_arity():
    text = encode_program(build_det_mod(2, 4))
    broken = text.replace("0 1\n", "0 1 0\n", 1)
    with pytest.raises(ProgramFormatError):
        decode_program(broken)


def test_decode_validates_and_names_the_level():
    p = lift_deterministic(build_det_mod(2, 4))
    text = encode_program(p)
    # corrupt one matrix entry of level 2 so a column sums to 0.5
    lines = text.splitlines()
    hit = lines.index("level 2 symbol 0")
    lines[hit + 1] = "0.5 0"
    lines[hit + 2] = "0 1"
    with pytest.raises(InvalidProgramError) as err:
        decode_program("\n".join(lines) + "\n")
    assert "level 2" in str(err.value)


def test_decode_requires_end_marker():
    text = encode_program(build_det_mod(2, 4))
    with pytest.raises(ProgramFormatError):
        decode_program(text.replace("end", ""))


@pytest.mark.parametrize("tail,lineno", [
    ("end\nlevel 1 symbol 0\n", 2),
    ("end\n\n# comment\n  junk  \n", 4),
    ("end junk\n", 1),
], ids=["a level line", "junk after a comment", "a value on the end line"])
def test_decode_rejects_content_after_end_at_its_line(tail, lineno):
    text = encode_program(build_det_mod(2, 4))
    head = text[:text.rindex("end\n")]
    with pytest.raises(ProgramFormatError) as err:
        decode_program(head + tail)
    assert err.value.lineno == head.count("\n") + lineno


def test_decode_rejects_two_documents_pasted_together():
    text = encode_program(build_det_mod(2, 4))
    with pytest.raises(ProgramFormatError, match="after 'end'") as err:
        decode_program(text + text)
    assert err.value.lineno == text.count("\n") + 1


def test_decode_rejects_extra_tokens_on_a_level_line():
    text = encode_program(build_det_mod(2, 4))
    lines = text.splitlines()
    hit = lines.index("level 1 symbol 0")
    lines[hit] += " junk"
    with pytest.raises(ProgramFormatError, match="expected 'level 1 symbol 0'") as err:
        decode_program("\n".join(lines))
    assert err.value.lineno == hit + 1


def test_decode_accepts_blank_lines_and_comments_after_end():
    p = build_det_mod(2, 4)
    q = decode_program(encode_program(p) + "\n  \n# trailing note\n\n")
    assert programs_structurally_equal(p, q)


def test_decode_rejects_truncated_documents():
    text = encode_program(build_det_mod(2, 4))
    with pytest.raises(ProgramFormatError):
        decode_program("\n".join(text.splitlines()[:10]))


def test_encode_refuses_invalid_programs():
    from obddlab import ObddProgram, level_map, natural_order

    # the program encode_program would refuse cannot be built
    with pytest.raises(InvalidProgramError,
                       match=r"^level 1 symbol 0: node 0 maps to 3 outside 0\.\.0$"):
        ObddProgram(
            kind="deterministic", order=natural_order(1), widths=(1, 1),
            levels=(level_map([3], [0]),), initial=0, accept=frozenset(),
        )


@pytest.mark.parametrize("key", ["n", "initial", "stable"])
@pytest.mark.parametrize("values", ["", " 4 2"])
def test_decode_single_integer_lines_raise_typed_errors(key, values):
    lines = encode_program(build_det_mod(2, 4)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[at] = key + values
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1


@pytest.mark.parametrize("value", ["2", "-1"])
def test_decode_rejects_stable_values_other_than_0_and_1(value):
    lines = encode_program(build_det_mod(2, 4)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("stable"))
    lines[at] = "stable " + value
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1


def test_the_stable_line_is_a_checked_claim():
    text = encode_program(build_det_counter(3, 4))
    lines = text.splitlines()
    assert lines[7] == "stable 1"
    at = lines.index("level 2 symbol 0") + 1
    lines[at] = "0 2 1"
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == 8
    lines[7] = "stable 0"
    assert not decode_program("\n".join(lines) + "\n").stable
    # identical levels are stable whatever the line says
    q = decode_program(text.replace("stable 1", "stable 0"))
    assert q.stable and encode_program(q) == text


def test_decode_rejects_oversized_dense_levels_at_the_widths_line():
    text = ("obddprogram 1\nkind nondeterministic\nn 2\norder 0 1\n"
            "widths 1 4000 4000\ninitial 0\naccept -\nstable 0\n")
    with pytest.raises(ProgramFormatError) as err:
        decode_program(text)
    assert err.value.lineno == 5 and "level 2" in str(err.value)


def test_decode_out_of_range_relation_target_names_the_level():
    p = build_nobdd_noto_fingerprint(4, 6)
    lines = encode_program(p).splitlines()
    at = lines.index("level 3 symbol 1") + 1
    lines[at] = f"0 {p.widths[3]}"
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1 and "level 3 symbol 1" in str(err.value)


@pytest.mark.parametrize("target", ["100000000000000000000000000",
                                    "-100000000000000000000000000",
                                    str(2 ** 63), str(-2 ** 63 - 1)])
def test_decode_rejects_deterministic_targets_outside_int64_at_their_line(target):
    lines = encode_program(build_det_mod(2, 4)).splitlines()
    at = lines.index("level 2 symbol 0") + 1
    lines[at] = f"0 {target}"
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1 and "level 2 symbol 0" in str(err.value)


@pytest.mark.parametrize("target", [str(2 ** 63 - 1), str(-2 ** 63)])
def test_decode_leaves_int64_targets_out_of_range_to_validation(target):
    lines = encode_program(build_det_mod(2, 4)).splitlines()
    at = lines.index("level 2 symbol 0") + 1
    lines[at] = f"0 {target}"
    with pytest.raises(InvalidProgramError, match=f"level 2 symbol 0: node 1 maps to {target}"):
        decode_program("\n".join(lines) + "\n")


def test_decode_rejects_non_positive_widths_at_the_widths_line():
    lines = encode_program(build_nobdd_noto_fingerprint(4, 6)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("widths"))
    lines[at] = "widths 1 0 5 5 5 5 5"
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1


@pytest.mark.parametrize("program", [lift_deterministic(build_det_mod(3, 6)),
                                     build_quantum_partialmod(1, 4)], ids=lambda p: p.kind)
def test_decode_rejects_nan_entries(program):
    lines = encode_program(program).splitlines()
    at = lines.index("level 2 symbol 1") + 1
    lines[at] = " ".join("nan" if program.kind == "probabilistic" else "nan,0"
                         for _ in lines[at].split())
    with pytest.raises(InvalidProgramError, match="level 2 symbol 1: non-finite"):
        decode_program("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared levels: rendered once, decoded to one array
# ---------------------------------------------------------------------------

def reference_encoding(p):
    """The document rendered entry by entry, level by level, with no memo."""
    def fmt(x):
        return format(float(x), ".17g")

    out = [
        "obddprogram 1", f"kind {p.kind}", f"n {p.n}",
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
                    out.append(" ".join(fmt(x) for x in row))
            else:
                for row in tr:
                    out.append(" ".join(f"{fmt(x.real)},{fmt(x.imag)}" for x in row))
    out.append("end")
    return "\n".join(out) + "\n"


def constructions(n):
    """Every construction at ``n`` with the parameters it accepts there."""
    out = [build_det_partialmod(k, n) for k in (0, 1, 2)]
    out += [build_det_mod(d, n) for d in range(2, min(7, n // 2 + 1))]
    out += [lift_deterministic(build_det_counter(m, n)) for m in range(2, 7)]
    out += [build_quantum_partialmod(k, n) for k in (0, 1, 2)]
    out += [build_quantum_nondet_noto(n), build_det_notpal(n)]
    out += [build_nobdd_noto_fingerprint(k, n) for k in (4, 6, 8)]
    out += [build_nobdd_noteqs_fingerprint(k, n) for k in (4, 8)]
    out += [build_det_eqs(k, n) for k in (4, 8)]
    return out


CONSTRUCTED = constructions(10) + constructions(11)


def sharing(levels):
    """For each level, the index of the first level with equal contents."""
    contents = [(t.shape, t.dtype.str, t.tobytes()) for t in levels]
    return [contents.index(c) for c in contents]


@pytest.mark.parametrize("program", CONSTRUCTED, ids=lambda p: f"{p.kind}-n{p.n}")
def test_encoding_matches_the_per_entry_renderer(program):
    assert encode_program(program) == reference_encoding(program)


@pytest.mark.parametrize("program", CONSTRUCTED, ids=lambda p: f"{p.kind}-n{p.n}")
def test_decoded_levels_are_shared_exactly_where_their_contents_repeat(program):
    q = decode_program(encode_program(program))
    assert sharing(q.levels) == sharing(program.levels)
    firsts = [q.levels[i] for i in sharing(q.levels)]
    assert all(t is first for t, first in zip(q.levels, firsts))
    assert len({id(t) for t in q.levels}) == len(set(sharing(program.levels)))
    if program.stable:
        assert len({id(t) for t in q.levels}) == 1


@pytest.mark.parametrize("program", [p for p in CONSTRUCTED if p.kind == "deterministic"],
                         ids=lambda p: f"n{p.n}-w{max(p.widths)}")
def test_lift_keeps_the_number_of_distinct_level_objects(program):
    lifted = lift_deterministic(program)
    assert len({id(t) for t in lifted.levels}) == len({id(t) for t in program.levels})


def stable_nobdd(n=4):
    t = level_relation([[0, 1], [1]], [[0], []], 2)
    return ObddProgram(kind="nondeterministic", order=natural_order(n), widths=(2,) * (n + 1),
                       levels=(t,) * n, initial=0, accept=frozenset({1}))


STABLE = [build_det_mod(3, 6), stable_nobdd(), lift_deterministic(build_det_mod(3, 6)),
          build_quantum_partialmod(1, 4)]


@pytest.mark.parametrize("program", STABLE, ids=lambda p: p.kind)
@pytest.mark.parametrize("level", [1, 3])
def test_a_bad_token_in_a_payload_fails_at_its_own_line(program, level):
    # level 3 repeats level 1's payload but for one token, which must fail
    # there even though the same text before it parsed cleanly
    lines = encode_program(program).splitlines()
    at = lines.index(f"level {level} symbol 0") + 1
    lines[at] = " ".join(["x"] + lines[at].split()[1:])
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1 and f"level {level} symbol 0" in str(err.value)


def test_a_bad_row_of_a_truncated_payload_fails_before_the_end_of_document():
    lines = encode_program(stable_nobdd()).splitlines()
    at = lines.index("level 3 symbol 0") + 1
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines[:at] + ["0 x"]) + "\n")
    assert err.value.lineno == at + 1
    with pytest.raises(ProgramFormatError, match="unexpected end") as err:
        decode_program("\n".join(lines[:at + 1]) + "\n")
    assert err.value.lineno == at + 2


@pytest.mark.parametrize("program, at, rows, lineno, message", [
    # a comment and a blank line inside a relation payload, before its bad row
    (stable_nobdd(), 16, ["# note", "", "2"],
     19, "level 2 symbol 0: node 1 maps to [2] outside 0..1"),
    (lift_deterministic(build_det_mod(3, 6)), 14, ["", "# note", "1 0"],
     17, "level 1 symbol 1: expected 3 entries, got 2"),
    # the last line of the last payload, just before 'end'
    (build_quantum_partialmod(1, 4), 31, ["0.70710678118654746,0 0.70710678118654757"],
     32, "level 4 symbol 1: malformed numeric entry"),
], ids=["nondeterministic", "probabilistic", "quantum"])
def test_a_refused_payload_names_its_bad_line_by_its_number_in_the_text(
        program, at, rows, lineno, message):
    lines = encode_program(program).splitlines()
    lines[at:at + 1] = rows
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == lineno and str(err.value) == f"line {lineno}: {message}"


def test_decoded_programs_are_validated_once(monkeypatch):
    text = encode_program(lift_deterministic(build_det_mod(3, 8)))
    calls = []

    def counted(p):
        calls.append(p)
        return validate(p)

    validate = core.validate_program
    monkeypatch.setattr(core, "validate_program", counted)
    q = decode_program(text)
    assert calls == [q]
    program_width(q)
    assert computes(q, mod_count(3, 8), AcceptanceMode.exact()).ok
    assert encode_program(q) == text
    assert calls == [q]


def test_a_map_repeated_into_levels_of_different_widths():
    # one deterministic array serves a level into width 2 and one into
    # width 3: it decodes to one array, and lifts to one matrix per width
    t = level_map([1, 0], [0, 1])
    p = ObddProgram(kind="deterministic", order=natural_order(2), widths=(2, 2, 3),
                    levels=(t, t), initial=0, accept=frozenset({1, 2}))
    q = decode_program(encode_program(p))
    assert q.levels[0] is q.levels[1]
    lifted = lift_deterministic(q)
    assert [m.shape for m in lifted.levels] == [(2, 2, 2), (2, 3, 2)]
    assert all(simulate(lifted, bits) == simulate(p, bits) for bits in ("00", "01", "10", "11"))


def test_a_relation_text_repeated_into_a_wider_level_decodes_to_its_own_array():
    # both levels read "0" on each symbol, but the second targets width 2
    p = ObddProgram(kind="nondeterministic", order=natural_order(2), widths=(1, 1, 2),
                    levels=(level_relation([[0]], [[0]], 1), level_relation([[0]], [[0]], 2)),
                    initial=0, accept=frozenset({0}))
    text = encode_program(p)
    assert text.count("\n0\n") == 4
    q = decode_program(text)
    assert programs_structurally_equal(p, q)
    assert q.levels[0] is not q.levels[1]


# ---------------------------------------------------------------------------
# the decoder against a line-by-line reference
# ---------------------------------------------------------------------------

def reference_decode(text):
    """The decoder as a line-by-line parse: every line is tokenized and
    checked where it stands, and every payload is parsed where it appears."""
    magic, max_entries, node_min, node_max = "obddprogram 1", 1 << 24, -2 ** 63, 2 ** 63 - 1
    row = {"deterministic": "map", "nondeterministic": "relation row",
           "probabilistic": "matrix row", "quantum": "matrix row"}
    numbered = [(i, line) for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
                if line and line[0] != "#"]
    end = len(text.splitlines()) + 1
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos == len(numbered):
            raise ProgramFormatError(end, f"unexpected end of document, expected {what}")
        pos += 1
        return numbered[pos - 1]

    def keyword(key):
        lineno, line = next_line(f"'{key}'")
        parts = line.split()
        if parts[0] != key:
            raise ProgramFormatError(lineno, f"expected '{key}', got {parts[0]!r}")
        return lineno, parts[1:]

    def ints(lineno, tokens, what):
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise ProgramFormatError(lineno, f"{what}: expected integers, got {tokens!r}")

    def int_line(key):
        lineno, toks = keyword(key)
        if len(toks) != 1:
            raise ProgramFormatError(lineno, f"'{key}' takes one integer, got {len(toks)} values")
        return ints(lineno, toks, key)[0]

    def parse_rows(kind, rows, w_in, w_out, where):
        out = []
        for s, (lineno, line) in enumerate(rows):
            if kind == "deterministic":
                targets = ints(lineno, line.split(), where)
                if len(targets) != w_in:
                    raise ProgramFormatError(
                        lineno, f"{where}: expected {w_in} targets, got {len(targets)}")
                if not node_min <= min(targets) <= max(targets) <= node_max:
                    raise ProgramFormatError(
                        lineno, f"{where}: a target outside {node_min}..{node_max}")
                out.append(targets)
            elif kind == "nondeterministic":
                targets = [] if line == "-" else ints(lineno, line.split(), where)
                bad = [u for u in targets if not 0 <= u < w_out]
                if bad:
                    raise ProgramFormatError(
                        lineno, f"{where}: node {s} maps to {bad} outside 0..{w_out - 1}")
                out.append(targets)
            else:
                tokens = line.split()
                if len(tokens) != w_in:
                    raise ProgramFormatError(
                        lineno, f"{where}: expected {w_in} entries, got {len(tokens)}")
                try:
                    if kind == "probabilistic":
                        out.append([float(t) for t in tokens])
                    else:
                        entries = []
                        for t in tokens:
                            re, im = t.split(",")
                            entries.append(complex(float(re), float(im)))
                        out.append(entries)
                except (ValueError, TypeError):
                    raise ProgramFormatError(lineno, f"{where}: malformed numeric entry")
        return out

    lineno, line = next_line("header")
    if line != magic:
        raise ProgramFormatError(lineno, f"expected header {magic!r}")
    lineno, toks = keyword("kind")
    if len(toks) != 1 or toks[0] not in KINDS:
        raise ProgramFormatError(lineno, f"kind must be one of {KINDS}")
    kind = toks[0]
    n = int_line("n")
    lineno, toks = keyword("order")
    perm = ints(lineno, toks, "order")
    if len(perm) != n:
        raise ProgramFormatError(lineno, f"expected {n} order entries, got {len(perm)}")
    try:
        order = VariableOrder(n, tuple(perm))
    except ValueError as e:
        raise ProgramFormatError(lineno, str(e))
    lineno, toks = keyword("widths")
    widths = ints(lineno, toks, "widths")
    if len(widths) != n + 1:
        raise ProgramFormatError(lineno, f"expected {n + 1} widths, got {len(widths)}")
    if min(widths) < 1:
        raise ProgramFormatError(lineno, "widths must be positive")
    for j in range(1, n + 1):
        entries = 2 * widths[j - 1] * (1 if kind == "deterministic" else widths[j])
        if entries > max_entries:
            raise ProgramFormatError(
                lineno, f"level {j}: {entries} transition entries exceed the bound {max_entries}")
    initial = int_line("initial")
    lineno, toks = keyword("accept")
    accept = [] if toks == ["-"] else ints(lineno, toks, "accept")
    stable = int_line("stable")
    stable_line = numbered[pos - 1][0]
    if stable not in (0, 1):
        raise ProgramFormatError(stable_line, f"stable must be 0 or 1, got {stable}")

    levels = []
    for j in range(1, n + 1):
        w_in, w_out = widths[j - 1], widths[j]
        per_symbol = []
        for sym in (0, 1):
            lineno, toks = keyword("level")
            if len(toks) != 3 or ints(lineno, toks[:1], "level") != [j] or \
                    toks[1] != "symbol" or ints(lineno, toks[2:], "symbol") != [sym]:
                raise ProgramFormatError(lineno, f"expected 'level {j} symbol {sym}'")
            where = f"level {j} symbol {sym}"
            count = 1 if kind == "deterministic" else w_in if kind == "nondeterministic" else w_out
            rows = numbered[pos:pos + count]
            pos = min(pos + count, len(numbered))
            per_symbol.append(parse_rows(kind, rows, w_in, w_out, where))
            if len(rows) < count:
                next_line(f"{where} {row[kind]}")
        if kind == "deterministic":
            levels.append(level_map(per_symbol[0][0], per_symbol[1][0]))
        elif kind == "nondeterministic":
            levels.append(level_relation(per_symbol[0], per_symbol[1], w_out))
        elif kind == "probabilistic":
            levels.append(level_stochastic(*per_symbol))
        else:
            levels.append(level_unitary(*per_symbol))
    lineno, toks = keyword("end")
    if toks:
        raise ProgramFormatError(lineno, f"'end' takes no values, got {toks!r}")
    if pos < len(numbered):
        raise ProgramFormatError(numbered[pos][0], "content after 'end'")
    p = ObddProgram(kind=kind, order=order, widths=tuple(widths), levels=tuple(levels),
                    initial=initial, accept=frozenset(accept))
    # the claim, checked level by level against level 1
    if stable and (len(set(widths)) > 1 or
                   any(not np.array_equal(t, levels[0]) for t in levels[1:])):
        raise ProgramFormatError(
            stable_line, "stable 1, but the levels are not one repeated transition pair")
    return p


#: tokens a mutation inserts or substitutes: numbers in and out of range,
#: other spellings of them, and malformed matrix entries
TOKENS = ["0", "1", "2", "3", "4", "7", "-1", "-2", "01", "+1", "1_0", "00", "-", "x",
          "9223372036854775807", "9223372036854775808", "-9223372036854775809",
          "0.5", "1.0", "nan", "inf", "-0", "1e400", "0,0", "1,0", "0,1", "0.5,0.5",
          "1,", ",", ",1", "1,2,3", "nan,0", "0,nan", "1,,0", "level", "symbol", "end", "#"]


def mutate(text, rng):
    """``text`` with one to three random edits."""
    lines = text.splitlines()

    def pick():
        return rng.randrange(len(lines)) if lines else None

    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(15)
        i = pick()
        if i is None:
            break
        tokens = lines[i].split()
        if op == 0 and len(tokens) > 1:                     # swap two tokens of a line
            a, b = rng.sample(range(len(tokens)), 2)
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        elif op == 1:                                       # insert a token
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(TOKENS))
            lines[i] = " ".join(tokens)
        elif op == 2 and tokens:                            # replace a token
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
            lines[i] = " ".join(tokens)
        elif op == 3 and tokens:                            # delete a token
            del tokens[rng.randrange(len(tokens))]
            lines[i] = " ".join(tokens)
        elif op == 4:                                       # delete a line
            del lines[i]
        elif op == 5:                                       # duplicate a line
            lines.insert(i, lines[i])
        elif op == 6:                                       # a comment or a blank line
            lines.insert(i, rng.choice(["# note", "  #", "", "   ", "\t"]))
        elif op == 7:                                       # tabs and extra spaces
            lines[i] = rng.choice(["\t", "  ", " \t "]).join(tokens) + rng.choice(["", " ", "\t"])
        elif op == 8 and tokens:                            # a 01-style number
            k = rng.randrange(len(tokens))
            tokens[k] = "0" + tokens[k]
            lines[i] = " ".join(tokens)
        elif op == 9:                                       # an empty relation row
            lines[i] = rng.choice(["-", " - ", "- 0", "0 -"])
        elif op == 10 and tokens:                           # a number off by the width
            k = rng.randrange(len(tokens))
            try:
                tokens[k] = str(int(tokens[k]) + rng.choice([-9, -1, 1, 3, 64, 2 ** 63]))
            except ValueError:
                tokens[k] = rng.choice(TOKENS)
            lines[i] = " ".join(tokens)
        elif op == 11 and i + 1 < len(lines):               # swap a token between lines
            other = lines[i + 1].split()
            if tokens and other:
                a, b = rng.randrange(len(tokens)), rng.randrange(len(other))
                tokens[a], other[b] = other[b], tokens[a]
                lines[i], lines[i + 1] = " ".join(tokens), " ".join(other)
        elif op == 12:                                      # swap two lines
            k = pick()
            lines[i], lines[k] = lines[k], lines[i]
        elif op == 13 and i + 1 < len(lines) and tokens:    # move a token to the next line
            lines[i + 1] += " " + tokens.pop(rng.randrange(len(tokens)))
            lines[i] = " ".join(tokens)
        elif op == 14 and len(tokens) > 1:                  # move a comma piece to a neighbour
            k = rng.randrange(len(tokens) - 1)
            head, _, rest = tokens[k + 1].partition(",")
            tokens[k], tokens[k + 1] = tokens[k] + "," + head, rest
            lines[i] = " ".join(tokens)
    sep = "\r\n" if rng.random() < 0.15 else "\n"
    return sep.join(lines) + (sep if rng.random() < 0.9 else "")


def outcome(decode, text):
    """What ``decode`` makes of ``text``: the program's encoding, or the
    exception's type, message and line number."""
    try:
        return encode_program(decode(text))
    except Exception as e:  # every exception, so that a bare one shows too
        return type(e), str(e), getattr(e, "lineno", None)


MUTATED_BASES = {
    "deterministic": [build_det_mod(3, 6), build_det_eqs(4, 6), build_det_notpal(5)],
    "nondeterministic": [build_nobdd_noto_fingerprint(4, 6), build_nobdd_noteqs_fingerprint(4, 5),
                         stable_nobdd()],
    "probabilistic": [lift_deterministic(build_det_mod(3, 6)),
                      lift_deterministic(build_det_partialmod(0, 4))],
    "quantum": [build_quantum_partialmod(1, 4), build_quantum_nondet_noto(4)],
}


@pytest.mark.parametrize("kind", KINDS)
def test_decoder_agrees_with_the_line_by_line_reference_on_mutated_documents(kind):
    rng = random.Random(f"mutations of {kind} documents")
    texts = [encode_program(p) for p in MUTATED_BASES[kind]]
    for text in texts:
        assert outcome(decode_program, text) == outcome(reference_decode, text) == text
    for _ in range(1500):
        text = mutate(rng.choice(texts), rng)
        assert outcome(decode_program, text) == outcome(reference_decode, text), text
