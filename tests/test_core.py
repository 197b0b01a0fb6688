import math
import re
from dataclasses import replace

import numpy as np
import pytest

from obddlab import (
    AcceptanceMode,
    CapExceededError,
    ComputesResult,
    InvalidProgramError,
    ModeKindMismatchError,
    NotStableError,
    ObddProgram,
    StateVector,
    VariableOrder,
    acceptance_table,
    computes,
    core,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
    lift_deterministic,
    natural_order,
    nobdd_to_obdd_subset,
    node_trace,
    pairing_order,
    program_width,
    programs_structurally_equal,
    reachable_widths,
    simulate,
    stable_symbol_chain,
    state_trace,
    validate_program,
)
from obddlab.constructions import (
    build_det_counter,
    build_det_eqs,
    build_det_mod,
    build_det_notpal,
    build_det_partialmod,
    build_nobdd_noto_fingerprint,
    build_quantum_partialmod,
)
from obddlab.core import parse_bits
from obddlab.functions import STAR, from_table, mod_count, not_o_prefix, partial_mod


def bitstrings(n):
    return (format(i, f"0{n}b") for i in range(1 << n))


def identity_unitary_program(n=3, accept=(0,)):
    eye = level_unitary(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    return ObddProgram(
        kind="quantum", order=natural_order(n), widths=(2,) * (n + 1),
        levels=(eye,) * n, initial=0, accept=frozenset(accept),
    )


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def test_natural_order_is_id():
    order = natural_order(5)
    assert order.perm == (0, 1, 2, 3, 4)
    assert order.is_id


def test_pairing_order_interleaves_ends():
    assert pairing_order(4).perm == (0, 3, 1, 2)
    assert pairing_order(5).perm == (0, 4, 1, 3, 2)
    assert not pairing_order(4).is_id


def test_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        natural_order(0)
    with pytest.raises(ValueError):
        from obddlab import VariableOrder
        VariableOrder(3, (0, 1, 1))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_identity_unitary_program_validates():
    assert validate_program(identity_unitary_program()).ok


def test_quantum_construction_validates():
    assert validate_program(build_quantum_partialmod(1, 8)).ok


def test_bad_stochastic_column_is_reported_with_level_and_column():
    good = np.eye(2)
    bad = np.array([[0.5, 0.0], [0.4, 1.0]])  # column 0 sums to 0.9
    levels = (
        level_stochastic(good, good),
        level_stochastic(good, good),
        level_stochastic(bad, good),
    )
    with pytest.raises(InvalidProgramError, match=r"^level 3 symbol 0: column 0 sums to 0\.9$"):
        ObddProgram(
            kind="probabilistic", order=natural_order(3), widths=(2,) * 4,
            levels=levels, initial=0, accept=frozenset({0}),
        )


def test_non_unitary_matrix_is_reported():
    half = np.full((2, 2), 0.5, dtype=complex)
    message = "level 1 symbol {}: not unitary (max |U*U - I| = 0.5)"
    with pytest.raises(InvalidProgramError,
                       match=f"^{re.escape(message.format(0) + '; ' + message.format(1))}$"):
        ObddProgram(
            kind="quantum", order=natural_order(1), widths=(2, 2),
            levels=(level_unitary(half, half),), initial=0, accept=frozenset({0}),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entries_are_reported(bad):
    m = np.array([[bad, 0.0], [bad, 1.0]])
    with pytest.raises(InvalidProgramError, match="^level 1 symbol 0: non-finite entries$"):
        ObddProgram(
            kind="probabilistic", order=natural_order(1), widths=(2, 2),
            levels=(level_stochastic(m, np.eye(2)),), initial=0, accept=frozenset({0}),
        )
    with pytest.raises(InvalidProgramError, match="^level 1 symbol 1: non-finite entries$"):
        ObddProgram(
            kind="quantum", order=natural_order(1), widths=(2, 2),
            levels=(level_unitary(np.eye(2), m),), initial=0, accept=frozenset({0}),
        )


@pytest.mark.parametrize("kind, big", [("probabilistic", 1e308), ("quantum", 1e200)])
def test_huge_finite_matrix_entries_are_reported_without_overflow(kind, big):
    # the column sums (probabilistic) or the Gram product (quantum) of this
    # matrix would overflow
    m = np.array([[big, big], [big, -big]])
    make = level_stochastic if kind == "probabilistic" else level_unitary
    with pytest.raises(InvalidProgramError,
                       match="^level 1 symbol 0: entries of modulus above 1$"):
        ObddProgram(
            kind=kind, order=natural_order(1), widths=(2, 2),
            levels=(make(m, np.eye(2)),), initial=0, accept=frozenset({0}),
        )


def test_dimension_chain_mismatch_is_reported():
    with pytest.raises(InvalidProgramError, match="^level 2: source dimension 1 != width 2$"):
        ObddProgram(
            kind="deterministic", order=natural_order(2), widths=(1, 2, 2),
            levels=(level_map([0], [1]), level_map([0], [1])),  # level 2 source dim 1 != 2
            initial=0, accept=frozenset({0}),
        )


def test_out_of_range_targets_accept_and_initial_are_reported():
    message = ("initial node 3 outside 0..0; accepting nodes [7] outside 0..1; "
               "level 1 symbol 0: node 0 maps to 5 outside 0..1")
    with pytest.raises(InvalidProgramError, match=f"^{re.escape(message)}$"):
        ObddProgram(
            kind="deterministic", order=natural_order(1), widths=(1, 2),
            levels=(level_map([5], [0]),), initial=3, accept=frozenset({7}),
        )


@pytest.mark.parametrize("build, message", [
    (lambda: VariableOrder(2, (0, 1.5)), r"^perm must be integral, got 0, 1\.5$"),
    (lambda: VariableOrder(2, (True, 0)), r"^perm must be integral, got True, 0$"),
    (lambda: VariableOrder(2, ("0", 1)), r"^perm must be integral, got '0', 1$"),
    (lambda: VariableOrder(2.5, (0, 1)), r"^n must be integral, got 2\.5$"),
    (lambda: VariableOrder(True, (0,)), r"^n must be integral, got True$"),
    (lambda: ObddProgram(
        kind="deterministic", order=natural_order(2), widths=(2, 2.7, 2),
        levels=(level_map([0, 1], [1, 0]),) * 2, initial=0, accept={0},
    ), r"^level widths must be integral, got 2, 2\.7, 2$"),
    (lambda: ObddProgram(
        kind="deterministic", order=natural_order(1), widths=(2, 2),
        levels=(level_map([0, 1], [1, 0]),), initial=0, accept={0.5},
    ), r"^accepting nodes must be integral, got 0\.5$"),
    (lambda: ObddProgram(
        kind="deterministic", order=natural_order(1), widths=(2, 2),
        levels=(level_map([0, 1], [1, 0]),), initial=0.5, accept={0},
    ), r"^initial node must be integral, got 0\.5$"),
    (lambda: ObddProgram(
        kind="probabilistic", order=natural_order(1), widths=(2, 2),
        levels=(level_stochastic(np.eye(2), np.eye(2)),), initial=True, accept={0},
    ), r"^initial node must be integral, got True$"),
    (lambda: level_relation([[0]], [[1]], 2.5), r"^width must be integral, got 2\.5$"),
], ids=["perm", "bool perm", "string perm", "n", "bool n", "widths", "accept", "initial",
        "bool initial", "relation width"])
def test_non_integral_order_widths_and_nodes_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_integral_widths_and_nodes_are_stored_as_int():
    p = ObddProgram(
        kind="deterministic", order=VariableOrder(2, (np.int64(1), 0.0)),
        widths=(np.int64(2), 2.0, 2), levels=(level_map([0, 1], [1, 0]),) * 2,
        initial=np.int32(1), accept={np.int64(0), 1.0},
    )
    for values in (p.order.perm, p.widths, p.accept, [p.initial]):
        assert {type(v) for v in values} == {int}
    assert (p.order.perm, p.widths, p.accept, p.initial) == ((1, 0), (2, 2, 2), {0, 1}, 1)


def test_kind_transition_shape_mismatch_is_reported():
    with pytest.raises(InvalidProgramError,
                       match="^level 1: map transition in a probabilistic program$"):
        ObddProgram(
            kind="probabilistic", order=natural_order(1), widths=(2, 2),
            levels=(level_map([0, 1], [1, 0]),), initial=0, accept=frozenset({0}),
        )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_parity_counter_accepts_1111():
    parity = build_det_counter(2, 4)
    assert simulate(parity, "1111") == 1.0
    assert simulate(parity, "1110") == 0.0


def test_quantum_partialmod_small_inputs_match_rotation_arithmetic():
    p = build_quantum_partialmod(0, 2)
    # one 1 rotates by pi/2: two of them land back on the accept axis
    assert simulate(p, "11") == pytest.approx(1.0, abs=1e-12)
    assert simulate(p, "10") == pytest.approx(0.0, abs=1e-12)
    assert simulate(p, "01") == pytest.approx(0.0, abs=1e-12)
    theta = math.pi / 2
    for bits, m in (("00", 0), ("10", 1), ("11", 2)):
        assert simulate(p, bits) == pytest.approx(math.cos(m * theta) ** 2, abs=1e-12)


def test_simulate_respects_variable_order():
    # accept iff the bit at position 2 is one, tested first
    from obddlab import VariableOrder
    p = ObddProgram(
        kind="deterministic", order=VariableOrder(3, (2, 0, 1)), widths=(1, 2, 2, 2),
        levels=(level_map([0], [1]), level_map([0, 1], [0, 1]), level_map([0, 1], [0, 1])),
        initial=0, accept=frozenset({1}),
    )
    assert simulate(p, "001") == 1.0
    assert simulate(p, "110") == 0.0


def test_simulate_rejects_wrong_length_and_bad_symbols():
    parity = build_det_counter(2, 4)
    with pytest.raises(ValueError):
        simulate(parity, "101")
    with pytest.raises(ValueError):
        simulate(parity, "10x1")


def test_relation_targets_must_fit_the_target_width():
    with pytest.raises(ValueError):
        level_relation([[0, 2]], [[0]], 2)


def test_relation_names_its_first_out_of_range_target():
    # bad targets on both symbols; the first in (symbol, source, listed)
    # order is the negative one of source 1 on symbol 0
    on0 = [[0, 1], [2, -1, 7], [9]]
    on1 = [[-5], [], [3]]
    with pytest.raises(ValueError) as err:
        level_relation(on0, on1, 3)
    assert str(err.value) == "symbol 0: node 1 maps to -1 outside 0..2"
    with pytest.raises(ValueError) as err:
        level_relation([[0], [], [1]], on1, 3)
    assert str(err.value) == "symbol 1: node 0 maps to -5 outside 0..2"
    with pytest.raises(ValueError) as err:
        level_relation([[0], [1, 2 ** 70]], [[0], [1]], 3)
    assert str(err.value) == f"symbol 0: node 1 maps to {2 ** 70} outside 0..2"


@pytest.mark.parametrize("build,message", [
    (lambda: level_relation([[True]], [[0]], 3), "symbol 0: node 0 maps to True, not an integer"),
    (lambda: level_relation([[0], [1.5]], [[0], [1]], 3),
     "symbol 0: node 1 maps to 1.5, not an integer"),
    (lambda: level_relation([[0], [1]], [[0], [2, np.True_]], 3),
     "symbol 1: node 1 maps to np.True_, not an integer"),
    (lambda: level_map([1.7], [0]), "symbol 0: node 0 maps to 1.7, not an integer"),
    (lambda: level_map(["1", "0"], [0, 1]), "symbol 0: node 0 maps to '1', not an integer"),
    (lambda: level_map([0, 1], [1, False]), "symbol 1: node 1 maps to False, not an integer"),
], ids=["bool relation", "float relation", "numpy bool relation", "float map", "string map",
        "bool map"])
def test_builders_take_integer_targets_only(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build", [level_stochastic, level_unitary])
def test_matrix_builders_take_matrices_only(build):
    with pytest.raises(ValueError, match=r"must be matrices, got shape \(2,\)$"):
        build([1, 0], [0, 1])


def test_builders_take_numpy_integer_targets():
    t = level_relation([np.array([0, 2])], [[np.uint8(1)]], 3)
    assert t[:, :, 0].tolist() == [[True, False, True], [False, True, False]]
    t = level_map(np.array([1, 0], dtype=np.int32), [np.int64(0), 1])
    assert t.tolist() == [[1, 0], [0, 1]]


def test_builders_take_whole_float_targets_as_ints():
    # the rule _integers applies to widths and nodes: 1.0 is the integer 1
    assert level_map([1.0], [np.float64(0.0)]).tolist() == [[1], [0]]
    t = level_relation([[1.0]], [[0]], 2)
    assert t[:, :, 0].tolist() == [[False, True], [True, False]]
    with pytest.raises(ValueError, match=r"^symbol 0: node 0 maps to 5 outside 0\.\.1$"):
        level_relation([[5.0]], [[0]], 2)


def test_structural_equality_compares_each_level_of_a_repeated_array():
    # one array object at every level; the copy differs at level 2 alone
    same = level_map([1, 0], [0, 1])
    other = level_map([0, 0], [0, 1])
    p = ObddProgram(kind="deterministic", order=natural_order(3), widths=(2,) * 4,
                    levels=(same,) * 3, initial=0, accept=frozenset({0}))
    q = ObddProgram(kind="deterministic", order=natural_order(3), widths=(2,) * 4,
                    levels=(level_map([1, 0], [0, 1]), other, level_map([1, 0], [0, 1])),
                    initial=0, accept=frozenset({0}))
    assert not programs_structurally_equal(p, q) and not programs_structurally_equal(q, p)
    r = ObddProgram(kind="deterministic", order=natural_order(3), widths=(2,) * 4,
                    levels=(same, level_map([1, 0], [0, 1]), same), initial=0,
                    accept=frozenset({0}))
    assert programs_structurally_equal(p, r) and programs_structurally_equal(p, p)


def test_parse_bits_reads_strings_and_sequences():
    assert parse_bits("0110") == (0, 1, 1, 0)
    assert parse_bits("", 0) == ()
    assert parse_bits([0, 1, True, np.int64(1), 0.0], 5) == (0, 1, 1, 1, 0)
    assert parse_bits(np.array([1, 0], dtype=np.int8)) == (1, 0)
    assert all(type(b) is int for b in parse_bits("01") + parse_bits(np.ones(2)))
    with pytest.raises(ValueError, match=r"^input '01b1' contains non-binary symbols$"):
        parse_bits("01b1")
    with pytest.raises(ValueError, match=r"^input '0 1' contains non-binary symbols$"):
        parse_bits("0 1", 3)
    with pytest.raises(ValueError, match="^input bits must be 0 or 1$"):
        parse_bits([0, 1, 2])
    with pytest.raises(ValueError, match="^input bits must be 0 or 1$"):
        parse_bits([-1])
    # an int cast would truncate 1.5 and parse "1"
    for bits in ([0, 1.5], ["1", "0"], [None]):
        with pytest.raises(ValueError, match="^input bits must be 0 or 1$"):
            parse_bits(bits)
    for bits in ("010", [0, 1, 0]):
        with pytest.raises(ValueError, match=r"^input length 3 != n = 4$"):
            parse_bits(bits, 4)


def test_simulate_refuses_invalid_program():
    # the program simulate would refuse cannot be built
    with pytest.raises(InvalidProgramError,
                       match=r"^level 1 symbol 0: node 0 maps to 4 outside 0\.\.0$"):
        ObddProgram(
            kind="deterministic", order=natural_order(1), widths=(1, 1),
            levels=(level_map([4], [0]),), initial=0, accept=frozenset(),
        )


def test_nondeterministic_simulation_is_path_existence():
    # two guesses; only the 1-branch can reach the accepting node
    p = ObddProgram(
        kind="nondeterministic", order=natural_order(2), widths=(1, 2, 2),
        levels=(
            level_relation([[0, 1]], [[0, 1]], 2),
            level_relation([[0], []], [[0], [1]], 2),
        ),
        initial=0, accept=frozenset({1}),
    )
    assert simulate(p, "01") == 1.0
    assert simulate(p, "00") == 0.0
    assert node_trace(p, "01")[-1] == frozenset({0, 1})


def test_simulate_stays_in_unit_interval_for_all_kinds():
    programs = [
        build_det_mod(3, 6),
        build_nobdd_noto_fingerprint(4, 6),
        lift_deterministic(build_det_mod(3, 6)),
        build_quantum_partialmod(1, 6),
    ]
    for p in programs:
        for bits in bitstrings(6):
            value = simulate(p, bits)
            assert 0.0 <= value <= 1.0 + 1e-12
            if p.kind == "deterministic":
                assert value in (0.0, 1.0)


def test_state_traces_stay_normalized():
    q = build_quantum_partialmod(2, 10)
    for bits in ("1111100000", "0101010101", "1111111111"):
        for sv in state_trace(q, bits):
            assert sv.normalization_defect() <= 1e-9
    r = lift_deterministic(build_det_mod(3, 6))
    for sv in state_trace(r, "110100"):
        assert sv.normalization_defect() <= 1e-9


# ---------------------------------------------------------------------------
# computes
# ---------------------------------------------------------------------------

def test_parity_counter_computes_mod2():
    verdict = computes(build_det_mod(2, 4), mod_count(2, 4), AcceptanceMode.deterministic())
    assert verdict.ok


def test_quantum_partialmod_computes_exactly():
    verdict = computes(
        build_quantum_partialmod(1, 8), partial_mod(1, 8), AcceptanceMode.exact()
    )
    assert verdict.ok


def test_wrong_counter_yields_genuine_counterexample():
    mod3 = build_det_counter(3, 4)
    f = mod_count(2, 4)
    verdict = computes(mod3, f, AcceptanceMode.deterministic())
    assert not verdict.ok
    cex = verdict.counterexample
    assert f(cex) in (0, 1)
    assert float(f(cex)) != simulate(mod3, cex)


def test_exhaustive_check_accepts_symmetric_constructions():
    p = build_quantum_partialmod(1, 8)
    f = partial_mod(1, 8)
    assert computes(p, f, AcceptanceMode.exact()).ok
    q = build_nobdd_noto_fingerprint(4, 8)
    g = not_o_prefix(4, 8)
    assert computes(q, g, AcceptanceMode.nondeterministic()).ok


def test_counterexample_outside_the_sorted_class_representatives():
    # a stable width-5 program accepting exactly 1^m 0^(4-m) with m even: it
    # agrees with mod_count(2, 4) on every sorted input 1^m 0^(4-m), so a
    # check of one sorted representative per count class would say yes
    a0, a1, z0, z1, rej = range(5)
    step = level_map([z0, z1, z0, z1, rej], [a1, a0, rej, rej, rej])
    p = ObddProgram(
        kind="deterministic", order=natural_order(4), widths=(5,) * 5,
        levels=(step,) * 4, initial=a0, accept=frozenset({a0, z0}),
    )
    f = mod_count(2, 4)
    assert all(simulate(p, "1" * m + "0" * (4 - m)) == f("1" * m + "0" * (4 - m))
               for m in range(5))
    verdict = computes(p, f, AcceptanceMode.deterministic())
    assert not verdict.ok and verdict.counterexample == "0011"


def test_mode_kind_mismatch_raises():
    nobdd = build_nobdd_noto_fingerprint(4, 6)
    with pytest.raises(ModeKindMismatchError):
        computes(nobdd, not_o_prefix(4, 6), AcceptanceMode.exact())
    with pytest.raises(ModeKindMismatchError):
        computes(build_det_mod(2, 4), mod_count(2, 4), AcceptanceMode.nondeterministic())


def test_computes_rejects_mismatched_lengths_and_huge_n():
    with pytest.raises(ValueError):
        computes(build_det_mod(2, 4), mod_count(2, 6), AcceptanceMode.deterministic())
    wide = build_det_counter(2, 30)
    with pytest.raises(CapExceededError):
        computes(wide, partial_mod(0, 30), AcceptanceMode.deterministic())


def test_acceptance_mode_parameter_validation():
    with pytest.raises(ValueError):
        AcceptanceMode.bounded_error(0.0)
    with pytest.raises(ValueError):
        AcceptanceMode.bounded_error(0.7)
    with pytest.raises(ValueError):
        AcceptanceMode.nondeterministic(-1.0)
    assert AcceptanceMode.bounded_error(0.5).accepts_yes(1.0)
    assert AcceptanceMode.nondeterministic(0.999).accepts_yes(1.0)


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf"), 1.0, -0.1])
def test_nondeterministic_cutoff_must_lie_in_zero_one(cutoff):
    with pytest.raises(ValueError, match=r"cutoff in \[0, 1\)"):
        AcceptanceMode.nondeterministic(cutoff)


@pytest.mark.parametrize("build, mode", [
    (build_det_notpal, AcceptanceMode.deterministic()),
    (lambda n: build_nobdd_noto_fingerprint(8, n), AcceptanceMode.nondeterministic()),
    (lambda n: lift_deterministic(build_det_counter(3, n)), AcceptanceMode.exact()),
    (lambda n: build_quantum_partialmod(1, n), AcceptanceMode.exact()),
    (lambda n: replace(build_quantum_partialmod(1, n), accept=frozenset()),
     AcceptanceMode.exact()),
], ids=["det_notpal", "nobdd_noto", "lifted_counter", "quantum_partialmod", "quantum_empty"])
def test_acceptance_table_at_n20_agrees_with_simulate_and_computes(build, mode):
    n = 20
    p = build(n)
    table = acceptance_table(p)
    assert table.shape == (1 << n,)
    rng = np.random.default_rng(20)
    for i in rng.integers(0, 1 << n, size=200):
        got = simulate(p, format(i, f"0{n}b"))
        if p.kind in ("deterministic", "nondeterministic"):
            assert got == table[i]
        else:
            assert got == pytest.approx(table[i], abs=1e-12)
    # the function the table computes, then one that differs at five inputs
    values = np.where(mode.accepts_yes(table), 1,
                      np.where(mode.accepts_no(table), 0, STAR)).astype(np.int8)
    assert computes(p, from_table(values), mode).ok
    flips = rng.choice(np.flatnonzero(values != STAR), size=5, replace=False)
    values[flips] = 1 - values[flips]
    verdict = computes(p, from_table(values), mode)
    assert not verdict.ok
    assert verdict.counterexample == format(flips.min(), f"0{n}b")


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------

def test_program_width_examples():
    assert program_width(build_det_mod(3, 6)).max_width == 3
    assert program_width(build_det_eqs(4, 8)).max_width == 11
    one = ObddProgram(
        kind="deterministic", order=natural_order(3), widths=(1,) * 4,
        levels=(level_map([0], [0]),) * 3, initial=0, accept=frozenset({0}),
    )
    assert program_width(one).max_width == 1


def test_reachable_width_counts_only_reachable_nodes():
    from obddlab.constructions import build_det_notpal
    widths = program_width(build_det_notpal(6))
    assert widths.max_width == 3
    # the absorbing accept node is not reachable before the second level
    assert reachable_widths(build_det_notpal(6)).per_level[1] == 2
    assert reachable_widths(build_det_notpal(6)).max_width == 3


def test_program_widths_are_a_construction_report():
    from obddlab.oracles import WidthReport
    p = build_det_mod(3, 6)
    for report in (program_width(p), reachable_widths(p)):
        assert type(report) is WidthReport is core.WidthReport
        assert report.kind == "construction"
        assert report.order == p.order.perm
    assert program_width(p).per_level == p.widths
    assert program_width(p).method == "level sizes"


@pytest.mark.parametrize("p", [
    lift_deterministic(build_det_mod(3, 6)), build_quantum_partialmod(1, 6),
], ids=lambda p: p.kind)
def test_reachable_widths_refuse_the_vector_kinds(p):
    with pytest.raises(ValueError, match="^reachable_widths applies to deterministic/"
                                         "nondeterministic programs$"):
        reachable_widths(p)


# ---------------------------------------------------------------------------
# subset construction
# ---------------------------------------------------------------------------

def test_width1_nobdd_determinizes_to_width_at_most_2():
    p = ObddProgram(
        kind="nondeterministic", order=natural_order(3), widths=(1,) * 4,
        levels=(level_relation([[0]], [[]], 1),) * 3, initial=0, accept=frozenset({0}),
    )
    d = nobdd_to_obdd_subset(p)
    assert program_width(d).max_width <= 2
    for bits in bitstrings(3):
        assert simulate(d, bits) == simulate(p, bits)


def test_subset_construction_agrees_with_fingerprint_nobdd():
    p = build_nobdd_noto_fingerprint(4, 6)
    d = nobdd_to_obdd_subset(p)
    assert d.kind == "deterministic"
    for bits in bitstrings(6):
        assert simulate(d, bits) == simulate(p, bits)


def test_subset_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(core, "_SUBSET_CAP", 2)
    p = build_nobdd_noto_fingerprint(6, 8)
    with pytest.raises(CapExceededError):
        nobdd_to_obdd_subset(p)


def test_subset_construction_rejects_other_kinds():
    with pytest.raises(ValueError):
        nobdd_to_obdd_subset(build_det_mod(2, 4))


def one_w_from_the_end(w, n):
    """Node 0 loops on both symbols and also moves to node 1 on symbol 1;
    node i moves to i + 1 on both, and node w - 1 has no successor."""
    def relation(w_in):
        shift = [[s + 1] if s + 1 < w else [] for s in range(1, w_in)]
        return level_relation([[0]] + shift, [[0, 1]] + shift, w)

    return ObddProgram(
        kind="nondeterministic", order=natural_order(n), widths=(1,) + (w,) * n,
        levels=(relation(1),) + (relation(w),) * (n - 1), initial=0,
        accept=frozenset({w - 1}),
    )


def test_subset_construction_blows_up_by_the_closed_form(monkeypatch):
    # the level-j subsets are {0} plus any pattern of the last min(j, w - 1)
    # ones, so level j has 2**min(j, w - 1) nodes
    w, n = 6, 8
    p = one_w_from_the_end(w, n)
    monkeypatch.setattr(core, "_SUBSET_CAP", 32)
    d = nobdd_to_obdd_subset(p)
    assert d.widths == tuple(2 ** min(j, w - 1) for j in range(n + 1))
    assert d.widths == (1, 2, 4, 8, 16, 32, 32, 32, 32)
    assert np.array_equal(acceptance_table(d), acceptance_table(p))
    monkeypatch.setattr(core, "_SUBSET_CAP", 31)
    with pytest.raises(CapExceededError, match="exceeded 31 nodes at level 5"):
        nobdd_to_obdd_subset(p)


# ---------------------------------------------------------------------------
# deterministic acceptance
# ---------------------------------------------------------------------------

def narrowing_program(accept):
    """A deterministic program under the pairing order whose last level,
    of width 2, is narrower than the two before it."""
    maps = [([0], [1]), ([0, 2], [3, 1]), ([4, 0, 2, 1], [3, 3, 0, 4]),
            ([1, 2, 3, 4, 0], [0, 0, 4, 4, 2]), ([0, 1, 1, 0, 1], [1, 1, 0, 0, 0])]
    return ObddProgram(
        kind="deterministic", order=pairing_order(5), widths=(1, 2, 4, 5, 5, 2),
        levels=tuple(level_map(*m) for m in maps), initial=0, accept=frozenset(accept),
    )


def walk(p, bits):
    """Acceptance of one input by following the raw maps node by node."""
    node = p.initial
    for t, pos in zip(p.levels, p.order.perm):
        node = int(t[int(bits[pos])][node])
    return 1.0 if node in p.accept else 0.0


@pytest.mark.parametrize("accept", [(), (0, 1), (1,)], ids=["empty", "every", "one"])
def test_deterministic_acceptance_agrees_with_a_walk_of_the_maps(accept):
    # both final nodes are reached, so each accept set is a distinct function
    assert {walk(narrowing_program({0}), bits) for bits in bitstrings(5)} == {0.0, 1.0}
    p = narrowing_program(accept)
    expected = np.array([walk(p, bits) for bits in bitstrings(p.n)])
    assert np.array_equal(acceptance_table(p), expected)
    assert [simulate(p, bits) for bits in bitstrings(p.n)] == expected.tolist()
    f = from_table(expected.astype(np.int8))
    assert computes(p, f, AcceptanceMode.deterministic()).ok
    flipped = computes(p, from_table(1 - expected.astype(np.int8)), AcceptanceMode.deterministic())
    assert flipped.counterexample == "00000"


# ---------------------------------------------------------------------------
# stable chains and lifting
# ---------------------------------------------------------------------------

def test_stable_symbol_chain_of_counter_is_cyclic_shift():
    det = build_det_partialmod(1, 8)
    for p in (det, lift_deterministic(det)):
        m1 = stable_symbol_chain(p, 1)
        expected = np.roll(np.eye(4), 1, axis=0)
        assert np.array_equal(m1, expected)
        assert np.array_equal(stable_symbol_chain(p, 0), np.eye(4))


def test_stability_is_read_off_the_levels():
    t = level_map([1, 0], [0, 1])

    def program(levels, widths):
        return ObddProgram(kind="deterministic", order=natural_order(len(levels)),
                           widths=widths, levels=levels, initial=0, accept=frozenset({0}))

    shared = program((t,) * 3, (2,) * 4)
    copies = program((t, np.array(t), level_map([1, 0], [0, 1])), (2,) * 4)
    ragged = program((t, t), (2, 2, 3))  # one array, into widths 2 and 3
    assert shared.stable and copies.stable and program((t,), (2, 2)).stable
    assert validate_program(ragged).ok and not ragged.stable
    assert not program((t, level_map([0, 0], [1, 1])), (2,) * 3).stable
    # no flag is needed for the chain
    for p in (shared, copies):
        assert np.array_equal(stable_symbol_chain(p, 0), [[0, 1], [1, 0]])
    with pytest.raises(NotStableError, match="widths or transitions differ"):
        stable_symbol_chain(ragged, 0)
    with pytest.raises(AttributeError):
        shared.stable = False


def test_derived_values_are_not_constructor_arguments():
    t = level_map([0], [0])
    with pytest.raises(TypeError):
        ObddProgram(kind="deterministic", order=natural_order(1), widths=(1, 1), levels=(t,),
                    initial=0, accept=frozenset({0}), stable=True)
    with pytest.raises(TypeError):
        ComputesResult(ok=True)
    with pytest.raises(TypeError):
        StateVector(np.ones(1), quantum=False)
    assert ComputesResult().ok and not ComputesResult("0101", "f = 1 but acceptance 0").ok
    assert StateVector(np.ones(1, dtype=complex)).quantum
    assert not StateVector(np.ones(1)).quantum


def test_stable_symbol_chain_requires_stable_classical_program():
    with pytest.raises(NotStableError):
        stable_symbol_chain(build_det_eqs(4, 8), 1)
    with pytest.raises(ValueError):
        stable_symbol_chain(build_quantum_partialmod(1, 4), 1)
    with pytest.raises(ValueError):
        stable_symbol_chain(build_det_partialmod(1, 4), 2)


def test_deterministic_program_is_a_special_probabilistic_program():
    for p in (build_det_mod(3, 8), build_det_partialmod(1, 8), build_det_mod(5, 12)):
        lifted = lift_deterministic(p)
        assert validate_program(lifted).ok
        for bits in bitstrings(p.n):
            assert simulate(lifted, bits) == pytest.approx(simulate(p, bits), abs=1e-12)


def test_bounded_error_mode_thresholds():
    # a lazy two-state chain: acceptance of the all-ones input after two
    # steps is 0.83, good enough for error 0.3 but not for 0.4
    m = np.array([[0.9, 0.2], [0.1, 0.8]])
    p = ObddProgram(
        kind="probabilistic", order=natural_order(2), widths=(2,) * 3,
        levels=(level_stochastic(m, m),) * 2, initial=0, accept=frozenset({0}),
    )
    assert simulate(p, "11") == pytest.approx(0.83, abs=1e-12)
    always_one = from_table(np.ones(4, dtype=np.int8))
    assert computes(p, always_one, AcceptanceMode.bounded_error(0.3)).ok
    assert not computes(p, always_one, AcceptanceMode.bounded_error(0.4)).ok


def ragged_stochastic():
    """Levels from ``level_stochastic`` between widths 3 and 2, which a
    program keeps as they are: they are already source-major."""
    down = level_stochastic([[0.5, 0.25, 1], [0.5, 0.75, 0]], [[0, 1, 0.5], [1, 0, 0.5]])
    up = level_stochastic([[1, 0], [0, 0.5], [0, 0.5]], [[0.25, 0], [0.25, 1], [0.5, 0]])
    p = ObddProgram(kind="probabilistic", order=natural_order(4), widths=(3, 2, 3, 2, 3),
                    levels=(down, up, down, up), initial=0, accept=frozenset({0, 2}))
    assert p.levels[0] is down and p.levels[1] is up
    return p


@pytest.mark.parametrize("build", [
    lambda: build_det_mod(3, 10),
    lambda: build_det_eqs(4, 8),
    lambda: build_nobdd_noto_fingerprint(4, 8),
    lambda: lift_deterministic(build_det_mod(3, 10)),
    ragged_stochastic,
    lambda: build_quantum_partialmod(1, 8),
], ids=["stable", "layered", "nondeterministic", "probabilistic", "stochastic", "quantum"])
def test_c_ordered_levels_are_stored_source_major(build):
    p = build()
    # one C-ordered copy per distinct level object, as a hand-built
    # program would pass them
    c_ordered = {id(t): np.ascontiguousarray(t) for t in p.levels}
    hand = ObddProgram(kind=p.kind, order=p.order, widths=p.widths,
                       levels=tuple(c_ordered[id(t)] for t in p.levels),
                       initial=p.initial, accept=p.accept)
    assert all(t.flags.c_contiguous for t in c_ordered.values())
    # the source axis (the last) outermost in memory, then the symbol axis,
    # in the builders' arrays and in the converted copies alike
    assert all(t.transpose(t.ndim - 1, *range(t.ndim - 1)).flags.c_contiguous
               for t in p.levels + hand.levels)
    for a, b in zip(hand.levels, p.levels):
        assert np.array_equal(a, b)
    # a level object shared in the input stays shared
    def sharing(levels):
        ids = [id(t) for t in levels]
        return [ids.index(i) for i in ids]

    assert sharing(hand.levels) == sharing(p.levels)
    assert validate_program(hand).ok
    np.testing.assert_allclose(acceptance_table(hand), acceptance_table(p), rtol=0, atol=1e-12)


def test_a_program_owns_its_level_arrays():
    # a Fortran-ordered int[2, w] is already source-major, and the caller
    # can still write to it after the memos below are filled
    t = np.asfortranarray([[0, 1], [1, 0]])
    p = ObddProgram(kind="deterministic", order=natural_order(4), widths=(2,) * 5,
                    levels=(t,) * 4, initial=0, accept=frozenset({0}))
    assert simulate(p, "1100") == 1.0
    assert not p.levels[0].flags.writeable
    t[1, 1] = 1
    assert simulate(p, "1100") == acceptance_table(p)[0b1100] == 1.0
    t[1, 1] = 5  # out of range, after validation passed
    assert computes(p, mod_count(2, 4), AcceptanceMode.deterministic()).ok
    # read-only source-major levels, as the builders make them, are kept
    built = build_det_eqs(4, 8)
    again = ObddProgram(kind=built.kind, order=built.order, widths=built.widths,
                        levels=built.levels, initial=built.initial, accept=built.accept)
    assert all(a is b for a, b in zip(again.levels, built.levels))
