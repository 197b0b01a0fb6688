import math

import numpy as np
import pytest

from obddlab import (
    AcceptanceMode,
    CapExceededError,
    InvalidProgramError,
    ModeKindMismatchError,
    NotStableError,
    ObddProgram,
    acceptance_table,
    computes,
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
    simulate,
    stable_symbol_chain,
    state_trace,
    validate_program,
)
from obddlab.constructions import (
    build_det_counter,
    build_det_eqs,
    build_det_mod,
    build_det_partialmod,
    build_nobdd_noto_fingerprint,
    build_quantum_partialmod,
)
from obddlab.functions import from_table, mod_count, not_o_prefix, partial_mod


def bitstrings(n):
    return (format(i, f"0{n}b") for i in range(1 << n))


def identity_unitary_program(n=3, accept=(0,)):
    eye = level_unitary(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    return ObddProgram(
        kind="quantum", order=natural_order(n), widths=(2,) * (n + 1),
        levels=(eye,) * n, initial=0, accept=frozenset(accept), stable=True,
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
    p = ObddProgram(
        kind="probabilistic", order=natural_order(3), widths=(2,) * 4,
        levels=levels, initial=0, accept=frozenset({0}),
    )
    report = validate_program(p)
    assert not report.ok
    assert any("level 3" in v and "column 0" in v and "0.9" in v for v in report.violations)


def test_non_unitary_matrix_is_reported():
    half = np.full((2, 2), 0.5, dtype=complex)
    p = ObddProgram(
        kind="quantum", order=natural_order(1), widths=(2, 2),
        levels=(level_unitary(half, half),), initial=0, accept=frozenset({0}),
    )
    report = validate_program(p)
    assert any("not unitary" in v for v in report.violations)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entries_are_reported(bad):
    m = np.array([[bad, 0.0], [bad, 1.0]])
    stochastic = ObddProgram(
        kind="probabilistic", order=natural_order(1), widths=(2, 2),
        levels=(level_stochastic(m, np.eye(2)),), initial=0, accept=frozenset({0}),
    )
    unitary = ObddProgram(
        kind="quantum", order=natural_order(1), widths=(2, 2),
        levels=(level_unitary(np.eye(2), m),), initial=0, accept=frozenset({0}),
    )
    assert validate_program(stochastic).violations == ("level 1 symbol 0: non-finite entries",)
    assert validate_program(unitary).violations == ("level 1 symbol 1: non-finite entries",)


@pytest.mark.parametrize("kind, big", [("probabilistic", 1e308), ("quantum", 1e200)])
def test_huge_finite_matrix_entries_are_reported_without_overflow(kind, big):
    # the column sums (probabilistic) or the Gram product (quantum) of this
    # matrix would overflow
    m = np.array([[big, big], [big, -big]])
    make = level_stochastic if kind == "probabilistic" else level_unitary
    p = ObddProgram(
        kind=kind, order=natural_order(1), widths=(2, 2),
        levels=(make(m, np.eye(2)),), initial=0, accept=frozenset({0}),
    )
    assert validate_program(p).violations == ("level 1 symbol 0: entries of modulus above 1",)


def test_dimension_chain_mismatch_is_reported():
    p = ObddProgram(
        kind="deterministic", order=natural_order(2), widths=(1, 2, 2),
        levels=(level_map([0], [1]), level_map([0], [1])),  # level 2 source dim 1 != 2
        initial=0, accept=frozenset({0}),
    )
    report = validate_program(p)
    assert any("level 2" in v and "source dimension" in v for v in report.violations)


def test_out_of_range_targets_accept_and_initial_are_reported():
    p = ObddProgram(
        kind="deterministic", order=natural_order(1), widths=(1, 2),
        levels=(level_map([5], [0]),), initial=3, accept=frozenset({7}),
    )
    report = validate_program(p)
    text = " / ".join(report.violations)
    assert "maps to 5" in text
    assert "initial node 3" in text
    assert "accepting nodes [7]" in text


def test_false_stable_flag_is_reported():
    levels = (level_map([0, 1], [1, 0]), level_map([1, 0], [1, 0]))
    p = ObddProgram(
        kind="deterministic", order=natural_order(2), widths=(2,) * 3,
        levels=levels, initial=0, accept=frozenset({0}), stable=True,
    )
    report = validate_program(p)
    assert any("stable flag" in v for v in report.violations)


def test_kind_transition_shape_mismatch_is_reported():
    p = ObddProgram(
        kind="probabilistic", order=natural_order(1), widths=(2, 2),
        levels=(level_map([0, 1], [1, 0]),), initial=0, accept=frozenset({0}),
    )
    assert any("map transition in a probabilistic" in v
               for v in validate_program(p).violations)


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


def test_simulate_refuses_invalid_program():
    p = ObddProgram(
        kind="deterministic", order=natural_order(1), widths=(1, 1),
        levels=(level_map([4], [0]),), initial=0, accept=frozenset(),
    )
    with pytest.raises(InvalidProgramError):
        simulate(p, "1")


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
        levels=(step,) * 4, initial=a0, accept=frozenset({a0, z0}), stable=True,
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


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------

def test_program_width_examples():
    assert program_width(build_det_mod(3, 6)).max_width == 3
    assert program_width(build_det_eqs(4, 8)).max_width == 11
    one = ObddProgram(
        kind="deterministic", order=natural_order(3), widths=(1,) * 4,
        levels=(level_map([0], [0]),) * 3, initial=0, accept=frozenset({0}), stable=True,
    )
    assert program_width(one).max_width == 1


def test_reachable_width_counts_only_reachable_nodes():
    from obddlab.constructions import build_det_notpal
    widths = program_width(build_det_notpal(6))
    assert widths.max_width == 3
    # the absorbing accept node is not reachable before the second level
    assert widths.reachable_per_level[1] == 2
    assert widths.reachable_max == 3


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


def test_subset_cap_is_enforced():
    p = build_nobdd_noto_fingerprint(6, 8)
    with pytest.raises(CapExceededError):
        nobdd_to_obdd_subset(p, subset_cap=2)


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


def test_subset_construction_blows_up_by_the_closed_form():
    # the level-j subsets are {0} plus any pattern of the last min(j, w - 1)
    # ones, so level j has 2**min(j, w - 1) nodes
    w, n = 6, 8
    p = one_w_from_the_end(w, n)
    d = nobdd_to_obdd_subset(p, subset_cap=32)
    assert d.widths == tuple(2 ** min(j, w - 1) for j in range(n + 1))
    assert d.widths == (1, 2, 4, 8, 16, 32, 32, 32, 32)
    assert np.array_equal(acceptance_table(d), acceptance_table(p))
    with pytest.raises(CapExceededError, match="exceeded 31 nodes at level 5"):
        nobdd_to_obdd_subset(p, subset_cap=31)


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
    p = build_det_partialmod(1, 8)
    m1 = stable_symbol_chain(p, 1)
    expected = np.roll(np.eye(4), 1, axis=0)
    assert np.array_equal(m1, expected)
    assert np.array_equal(stable_symbol_chain(p, 0), np.eye(4))


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
        stable=True,
    )
    assert simulate(p, "11") == pytest.approx(0.83, abs=1e-12)
    always_one = from_table(np.ones(4, dtype=np.int8))
    assert computes(p, always_one, AcceptanceMode.bounded_error(0.3)).ok
    assert not computes(p, always_one, AcceptanceMode.bounded_error(0.4)).ok


@pytest.mark.parametrize("build", [lambda: build_det_mod(3, 10), lambda: build_det_eqs(4, 8)],
                         ids=["stable", "layered"])
def test_c_ordered_deterministic_levels_are_stored_node_major(build):
    p = build()
    # one C-ordered copy per distinct level object, as a hand-built
    # program would pass them
    c_ordered = {id(t): np.ascontiguousarray(t) for t in p.levels}
    hand = ObddProgram(kind=p.kind, order=p.order, widths=p.widths,
                       levels=tuple(c_ordered[id(t)] for t in p.levels),
                       initial=p.initial, accept=p.accept, stable=p.stable)
    assert all(t.flags.c_contiguous and t.ndim == 2 for t in c_ordered.values())
    assert all(t.T.flags.c_contiguous for t in hand.levels)
    for a, b in zip(hand.levels, p.levels):
        assert np.array_equal(a, b)
    # a level object shared in the input stays shared
    def sharing(levels):
        ids = [id(t) for t in levels]
        return [ids.index(i) for i in ids]

    assert sharing(hand.levels) == sharing(p.levels)
    assert validate_program(hand).ok
    assert np.array_equal(acceptance_table(hand), acceptance_table(p))
