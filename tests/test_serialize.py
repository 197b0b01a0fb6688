import pytest

from obddlab import (
    InvalidProgramError,
    lift_deterministic,
    programs_structurally_equal,
    simulate,
)
from obddlab.constructions import (
    build_det_eqs,
    build_det_mod,
    build_det_notpal,
    build_nobdd_noteqs_fingerprint,
    build_nobdd_noto_fingerprint,
    build_quantum_nondet_noto,
    build_quantum_partialmod,
)
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


def test_decode_rejects_truncated_documents():
    text = encode_program(build_det_mod(2, 4))
    with pytest.raises(ProgramFormatError):
        decode_program("\n".join(text.splitlines()[:10]))


def test_encode_refuses_invalid_programs():
    from obddlab import ObddProgram, level_map, natural_order

    bad = ObddProgram(
        kind="deterministic", order=natural_order(1), widths=(1, 1),
        levels=(level_map([3], [0]),), initial=0, accept=frozenset(),
    )
    with pytest.raises(InvalidProgramError):
        encode_program(bad)


@pytest.mark.parametrize("key", ["n", "initial", "stable"])
@pytest.mark.parametrize("values", ["", " 4 2"])
def test_decode_single_integer_lines_raise_typed_errors(key, values):
    lines = encode_program(build_det_mod(2, 4)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[at] = key + values
    with pytest.raises(ProgramFormatError) as err:
        decode_program("\n".join(lines) + "\n")
    assert err.value.lineno == at + 1


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
