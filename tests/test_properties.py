import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obddlab import (
    AcceptanceMode,
    ObddProgram,
    VariableOrder,
    acceptance_table,
    computes,
    level_map,
    level_relation,
    level_stochastic,
    level_unitary,
    lift_deterministic,
    natural_order,
    nobdd_to_obdd_subset,
    simulate,
    state_trace,
    validate_program,
)
from obddlab import core
from obddlab.core import KINDS
from obddlab.constructions import (
    build_det_mod,
    build_det_notpal,
    build_nobdd_noto_fingerprint,
    build_quantum_partialmod,
)
from obddlab.functions import STAR, from_table
from obddlab.markov import classify_states
from obddlab.oracles import (
    distinguishability_lower_bound,
    minimal_obdd,
    partial_min_width_exact,
    subfunction_widths,
)


@st.composite
def small_nobdds(draw):
    n = draw(st.integers(2, 5))
    width = draw(st.integers(1, 3))
    levels = []
    for _ in range(n):
        rows = [
            [
                draw(st.sets(st.integers(0, width - 1), max_size=width))
                for _ in range(width)
            ]
            for _ in range(2)
        ]
        levels.append(level_relation(rows[0], rows[1], width))
    accept = draw(st.sets(st.integers(0, width - 1), max_size=width))
    return ObddProgram(
        kind="nondeterministic", order=natural_order(n), widths=(width,) * (n + 1),
        levels=tuple(levels), initial=0, accept=frozenset(accept),
    )


@st.composite
def small_deterministic_programs(draw):
    n = draw(st.integers(2, 5))
    width = draw(st.integers(1, 4))
    levels = [
        level_map(
            [draw(st.integers(0, width - 1)) for _ in range(width)],
            [draw(st.integers(0, width - 1)) for _ in range(width)],
        )
        for _ in range(n)
    ]
    accept = draw(st.sets(st.integers(0, width - 1), max_size=width))
    return ObddProgram(
        kind="deterministic", order=natural_order(n), widths=(width,) * (n + 1),
        levels=tuple(levels), initial=0, accept=frozenset(accept),
    )


@st.composite
def random_tables(draw, codes):
    n = draw(st.integers(2, 5))
    values = draw(
        st.lists(st.sampled_from(codes), min_size=1 << n, max_size=1 << n)
    )
    return from_table(np.array(values, dtype=np.int8))


def all_inputs(n):
    return (format(i, f"0{n}b") for i in range(1 << n))


def reference_acceptance(p, bits):
    """Acceptance probability by a plain per-input, per-node walk over the
    transition entries; shares no stepping code with the library."""
    x = [int(c) for c in bits]
    symbols = [x[pos] for pos in p.order.perm]
    if p.kind == "deterministic":
        node = p.initial
        for t, sym in zip(p.levels, symbols):
            node = int(t[sym][node])
        return 1.0 if node in p.accept else 0.0
    if p.kind == "nondeterministic":
        reached = {p.initial}
        for t, sym in zip(p.levels, symbols):
            rel = t[sym]
            reached = {u for s in reached for u in range(rel.shape[0]) if rel[u][s]}
        return 1.0 if reached & p.accept else 0.0
    v = [0.0] * p.widths[0]
    v[p.initial] = 1.0
    for t, sym in zip(p.levels, symbols):
        m = t[sym]
        v = [sum(complex(m[u][s]) * v[s] for s in range(len(v))) for u in range(m.shape[0])]
    if p.kind == "quantum":
        return sum(abs(v[a]) ** 2 for a in p.accept)
    return sum(v[a].real for a in p.accept)


@st.composite
def programs(draw, kind, min_n=1):
    """Programs of any kind under a random order; widths are ragged except
    for the quantum kind, whose levels must be square."""
    n = draw(st.integers(min_n, 5))
    widths = [draw(st.integers(1, 3)) for _ in range(n + 1)]
    if kind == "quantum":
        widths = [widths[0]] * (n + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = []
    for w_in, w_out in zip(widths, widths[1:]):
        if kind == "deterministic":
            levels.append(level_map(
                *([draw(st.integers(0, w_out - 1)) for _ in range(w_in)] for _ in range(2))))
        elif kind == "nondeterministic":
            levels.append(level_relation(
                *([draw(st.sets(st.integers(0, w_out - 1))) for _ in range(w_in)]
                  for _ in range(2)),
                w_out))
        elif kind == "probabilistic":
            m = rng.random((2, w_out, w_in)) * (rng.random((2, w_out, w_in)) < 0.7) + 1e-3
            levels.append(level_stochastic(*(m / m.sum(axis=1, keepdims=True))))
        else:
            z = rng.normal(size=(2, w_out, w_in)) + 1j * rng.normal(size=(2, w_out, w_in))
            levels.append(level_unitary(*(np.linalg.qr(z[sym])[0] for sym in (0, 1))))
    return ObddProgram(
        kind=kind, order=VariableOrder(n, draw(st.permutations(range(n)))),
        widths=tuple(widths), levels=tuple(levels),
        initial=draw(st.integers(0, widths[0] - 1)),
        accept=frozenset(draw(st.sets(st.integers(0, widths[-1] - 1)))),
    )


@given(st.sampled_from(KINDS).flatmap(programs))
@settings(max_examples=120, deadline=None)
def test_simulate_acceptance_table_and_reference_agree(p):
    assert validate_program(p).ok
    table = acceptance_table(p)
    assert table.shape == (1 << p.n,)
    for i, bits in enumerate(all_inputs(p.n)):
        want = reference_acceptance(p, bits)
        assert simulate(p, bits) == pytest.approx(want, abs=1e-12)
        assert table[i] == pytest.approx(want, abs=1e-12)


@given(programs("deterministic", min_n=2), st.data())
@settings(max_examples=60, deadline=None)
def test_counterexample_is_the_smallest_failing_input_under_any_order(p, data):
    assume(not p.order.is_id)
    values = data.draw(st.lists(st.sampled_from([0, 1, STAR]),
                                min_size=1 << p.n, max_size=1 << p.n))
    wrong = [bits for bits, want in zip(all_inputs(p.n), values)
             if want != STAR and reference_acceptance(p, bits) != want]
    verdict = computes(p, from_table(np.array(values, dtype=np.int8)),
                       AcceptanceMode.deterministic())
    assert verdict.ok == (not wrong)
    assert verdict.counterexample == (wrong[0] if wrong else None)


@pytest.mark.parametrize("program", [
    build_det_notpal(9),
    build_nobdd_noto_fingerprint(4, 9),
    lift_deterministic(build_det_mod(3, 9)),
    build_quantum_partialmod(1, 9),
], ids=lambda p: p.kind)
def test_chunked_acceptance_table_matches_unchunked(program, monkeypatch):
    whole = acceptance_table(program)
    monkeypatch.setattr(core, "_CHUNK_LEVELS", 3)
    np.testing.assert_allclose(acceptance_table(program), whole, rtol=0, atol=1e-12)


@given(small_nobdds())
@settings(max_examples=60, deadline=None)
def test_subset_construction_preserves_acceptance(p):
    assert validate_program(p).ok
    d = nobdd_to_obdd_subset(p)
    assert validate_program(d).ok
    for bits in all_inputs(p.n):
        assert simulate(d, bits) == simulate(p, bits)


@given(small_deterministic_programs())
@settings(max_examples=60, deadline=None)
def test_lifting_to_stochastic_matrices_preserves_acceptance(p):
    lifted = lift_deterministic(p)
    for bits in all_inputs(p.n):
        assert simulate(lifted, bits) == pytest.approx(simulate(p, bits), abs=1e-12)


@given(small_deterministic_programs())
@settings(max_examples=40, deadline=None)
def test_lifted_traces_stay_normalized(p):
    lifted = lift_deterministic(p)
    for bits in list(all_inputs(p.n))[:8]:
        for sv in state_trace(lifted, bits):
            assert sv.normalization_defect() <= 1e-9


@given(st.permutations(list(range(7))))
@settings(max_examples=60, deadline=None)
def test_permutation_chain_periods_are_cycle_lengths(perm):
    size = len(perm)
    m = np.zeros((size, size))
    for s, t in enumerate(perm):
        m[t, s] = 1.0
    dec = classify_states(m)
    seen = set()
    cycle_lengths = []
    for start in range(size):
        if start in seen:
            continue
        length, at = 0, start
        while at not in seen:
            seen.add(at)
            at = perm[at]
            length += 1
        cycle_lengths.append(length)
    assert sorted(dec.periods) == sorted(cycle_lengths)
    assert dec.period_lcm == math.lcm(*cycle_lengths)
    assert not dec.transient


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_random_stochastic_chains_decompose_cleanly(size, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((size, size)) * (rng.random((size, size)) < 0.5)
    m += np.eye(size) * 1e-3  # guarantee no all-zero column
    m /= m.sum(axis=0)
    dec = classify_states(m)
    members = set(dec.transient)
    for cls in dec.ergodic_classes:
        assert not members & cls
        members |= cls
    assert members == set(range(size))
    # ergodic classes are closed under transitions
    for cls in dec.ergodic_classes:
        for s in cls:
            targets = {t for t in range(size) if m[t, s] > 1e-12}
            assert targets <= cls


@given(random_tables(codes=[0, 1]))
@settings(max_examples=40, deadline=None)
def test_partition_oracle_matches_subfunction_oracle_on_total_tables(f):
    assert (partial_min_width_exact(f, class_cap=64).per_level
            == subfunction_widths(f).per_level)


@given(random_tables(codes=[0, 1, 2]))
@settings(max_examples=25, deadline=None)
def test_minimal_program_for_random_partial_tables(f):
    report = partial_min_width_exact(f, class_cap=64)
    assert distinguishability_lower_bound(f).max_width <= report.max_width
    program = minimal_obdd(f, class_cap=64)
    table = f.truth_table()
    for i, bits in enumerate(all_inputs(f.n)):
        want = int(table[i])
        if want == 2:
            continue
        assert simulate(program, bits) == float(want)
