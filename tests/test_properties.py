import hashlib
import importlib.util
import io
import itertools
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    node_trace,
    program_width,
    programs_structurally_equal,
    reachable_widths,
    simulate,
    state_trace,
    validate_program,
)
from obddlab import CapExceededError, InvalidProgramError, core, oracles
from obddlab.core import KINDS
from obddlab.constructions import (
    build_det_mod,
    build_det_notpal,
    build_nobdd_noteqs_fingerprint,
    build_nobdd_noto_fingerprint,
    build_quantum_partialmod,
)
from obddlab.functions import (
    STAR,
    format_truth_table,
    from_table,
    mod_count,
    not_o,
    partial_mod,
    read_truth_table,
)
from obddlab.markov import classify_states
from obddlab.oracles import (
    distinguishability_lower_bound,
    minimal_obdd,
    partial_min_width_exact,
    prefix_classes,
    subfunction_widths,
)
from obddlab.serialize import ProgramFormatError, decode_program, encode_program


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


def random_level(draw, rng, kind, w_in, w_out):
    if kind == "deterministic":
        return level_map(
            *([draw(st.integers(0, w_out - 1)) for _ in range(w_in)] for _ in range(2)))
    if kind == "nondeterministic":
        return level_relation(
            *([draw(st.sets(st.integers(0, w_out - 1))) for _ in range(w_in)] for _ in range(2)),
            w_out)
    if kind == "probabilistic":
        m = rng.random((2, w_out, w_in)) * (rng.random((2, w_out, w_in)) < 0.7) + 1e-3
        return level_stochastic(*(m / m.sum(axis=1, keepdims=True)))
    z = rng.normal(size=(2, w_out, w_in)) + 1j * rng.normal(size=(2, w_out, w_in))
    return level_unitary(*(np.linalg.qr(z[sym])[0] for sym in (0, 1)))


@st.composite
def programs(draw, kind, min_n=1):
    """Programs of any kind under a random order; widths are ragged except
    for the quantum kind, whose levels must be square."""
    n = draw(st.integers(min_n, 5))
    widths = [draw(st.integers(1, 3)) for _ in range(n + 1)]
    if kind == "quantum":
        widths = [widths[0]] * (n + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = [random_level(draw, rng, kind, w_in, w_out)
              for w_in, w_out in zip(widths, widths[1:])]
    return ObddProgram(
        kind=kind, order=VariableOrder(n, draw(st.permutations(range(n)))),
        widths=tuple(widths), levels=tuple(levels),
        initial=draw(st.integers(0, widths[0] - 1)),
        accept=frozenset(draw(st.sets(st.integers(0, widths[-1] - 1)))),
    )


@st.composite
def shared_programs(draw, kind):
    """Programs whose levels come from a small pool of arrays per width pair,
    so that level objects, and level contents, repeat in random patterns;
    a program whose levels are one array, or equal copies of it, is stable."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=1 if kind == "quantum" else 2))
    widths = [draw(st.sampled_from(sizes)) for _ in range(n + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool, levels = {}, []
    for w_in, w_out in zip(widths, widths[1:]):
        arrays = pool.setdefault((w_in, w_out), [])
        pick = draw(st.integers(0, len(arrays)))
        if pick == len(arrays):
            t = random_level(draw, rng, kind, w_in, w_out)
            # an equal copy of an earlier array: the same contents, another object
            arrays.append(np.array(arrays[0]) if arrays and draw(st.booleans()) else t)
        levels.append(arrays[pick])
    return ObddProgram(
        kind=kind, order=VariableOrder(n, draw(st.permutations(range(n)))),
        widths=tuple(widths), levels=tuple(levels),
        initial=draw(st.integers(0, widths[0] - 1)),
        accept=frozenset(draw(st.sets(st.integers(0, widths[-1] - 1)))),
    )


@given(st.sampled_from(KINDS).flatmap(shared_programs))
@settings(max_examples=200, deadline=None)
def test_documents_survive_a_decode_encode_round_trip(p):
    text = encode_program(p)
    q = decode_program(text)
    assert encode_program(q) == text
    assert programs_structurally_equal(p, q)
    # levels are shared exactly where their contents repeat
    contents = [(t.shape, t.dtype.str, t.tobytes()) for t in p.levels]
    firsts = [contents.index(c) for c in contents]
    assert all(q.levels[i] is t for i, t in zip(firsts, q.levels))
    assert len({id(t) for t in q.levels}) == len(set(contents))


def kernel_path(p, bits):
    """Batch-of-one states before and after every step on one input,
    through the batch kernel ``core._advance``."""
    states = [core._start(p)]
    for t, pos in zip(p.levels, p.order.perm):
        states.append(core._advance(t, states[-1])[int(bits[pos])])
    return states


def assert_walk_matches_kernel(p):
    """The single-input walk against the batch kernel on every input:
    ``simulate`` against ``acceptance_table`` (exactly for the classical
    kinds) and the traces against the kernel's states at every level."""
    table = acceptance_table(p)
    classical = p.kind in ("deterministic", "nondeterministic")
    for i, bits in enumerate(all_inputs(p.n)):
        if classical:
            assert simulate(p, bits) == table[i]
        else:
            assert simulate(p, bits) == pytest.approx(table[i], abs=1e-12)
        states = kernel_path(p, bits)
        if p.kind == "deterministic":
            assert node_trace(p, bits) == [int(s[0]) for s in states]
        elif p.kind == "nondeterministic":
            assert node_trace(p, bits) == [frozenset(np.flatnonzero(s[0]).tolist())
                                           for s in states]
        else:
            trace = state_trace(p, bits)
            assert len(trace) == len(states)
            for sv, s in zip(trace, states):
                np.testing.assert_allclose(sv.entries, s[0], rtol=0, atol=1e-12)


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
    assert_walk_matches_kernel(p)
    # with no accepting node, the walk still has to agree on every state
    empty = ObddProgram(kind=p.kind, order=p.order, widths=p.widths, levels=p.levels,
                        initial=p.initial, accept=frozenset())
    assert not acceptance_table(empty).any()
    assert_walk_matches_kernel(empty)


@st.composite
def wide_nobdds(draw):
    """Nondeterministic programs with ragged widths of 60..140 under a
    random order, so that reachable-set bitmasks span several machine
    words; each node moves to a few random targets per symbol."""
    n = draw(st.integers(1, 4))
    widths = [draw(st.integers(60, 140)) for _ in range(n + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = [level_relation(*([rng.choice(w_out, size=rng.integers(0, 4), replace=False)
                                .tolist() for _ in range(w_in)] for _ in range(2)), w_out)
              for w_in, w_out in zip(widths, widths[1:])]
    accept = rng.choice(widths[-1], size=draw(st.integers(0, 8)), replace=False)
    return ObddProgram(
        kind="nondeterministic", order=VariableOrder(n, draw(st.permutations(range(n)))),
        widths=tuple(widths), levels=tuple(levels),
        initial=draw(st.integers(0, widths[0] - 1)), accept=frozenset(accept.tolist()),
    )


@given(wide_nobdds())
@settings(max_examples=40, deadline=None)
def test_walk_matches_the_batch_kernel_past_one_machine_word(p):
    assert_walk_matches_kernel(p)


@given(st.sampled_from(KINDS).flatmap(programs), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_refuses_invalid_programs_and_bad_bits(p, data):
    traces = [simulate, state_trace if p.kind in ("probabilistic", "quantum") else node_trace]
    message = f"initial node {p.widths[0]} outside 0..{p.widths[0] - 1}"
    # the program the walk would refuse cannot be built
    with pytest.raises(InvalidProgramError, match=f"^{message}$"):
        ObddProgram(kind=p.kind, order=p.order, widths=p.widths, levels=p.levels,
                    initial=p.widths[0], accept=p.accept)
    bits = "".join(data.draw(st.sampled_from("01")) for _ in range(p.n))
    for run in traces:
        with pytest.raises(ValueError, match=f"^input length {p.n + 1} != n = {p.n}$"):
            run(p, bits + "0")
        with pytest.raises(ValueError, match="^input bits must be 0 or 1$"):
            run(p, [int(b) for b in bits[:-1]] + [2])
        bad = bits[:-1] + data.draw(st.sampled_from("2x -"))
        with pytest.raises(ValueError, match=f"^input {re.escape(repr(bad))} contains "
                                             "non-binary symbols$"):
            run(p, bad)


#: what a validation message calls a transition array of each kind
TRANSITION_NAMES = {"deterministic": "map", "nondeterministic": "relation",
                    "probabilistic": "stochastic", "quantum": "unitary"}


@given(st.sampled_from(KINDS).flatmap(programs), st.data())
@settings(max_examples=120, deadline=None)
def test_a_program_broken_in_one_field_cannot_be_built(p, data):
    n, w = p.n, p.widths
    field = data.draw(st.sampled_from(["initial", "accept", "widths", "levels"]))
    if field == "initial":
        value, rule = w[0], rf"initial node {w[0]} outside 0\.\.{w[0] - 1}"
    elif field == "accept":
        value, rule = p.accept | {w[n]}, rf"accepting nodes \[{w[n]}\] outside 0\.\.{w[n] - 1}"
    elif field == "widths":
        # a width some array's shape fixes: a map has no target axis, so
        # no deterministic level fixes the last width
        j = data.draw(st.integers(0, n - 1 if p.kind == "deterministic" else n))
        value = w[:j] + (w[j] + data.draw(st.sampled_from([1, -1] if w[j] > 1 else [1])),) \
            + w[j + 1:]
        rule = r"level \d+: (source|target) dimension \d+ != width \d+"
    else:
        j = data.draw(st.integers(1, n))
        other = data.draw(st.sampled_from([k for k in KINDS if k != p.kind]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        value = p.levels[:j - 1] + (random_level(data.draw, rng, other, w[j - 1], w[j]),) \
            + p.levels[j:]
        rule = rf"level {j}: {TRANSITION_NAMES[other]} transition in a {p.kind} program"
    fields = {f: getattr(p, f) for f in ("kind", "order", "widths", "levels", "initial", "accept")}
    fields[field] = value
    with pytest.raises(InvalidProgramError) as err:
        if data.draw(st.booleans()):
            replace(p, **{field: value})
        else:
            ObddProgram(**fields)
    assert type(err.value) is InvalidProgramError
    assert re.search(rule, str(err.value)), (rule, str(err.value))


@given(st.sampled_from(["deterministic", "nondeterministic"]).flatmap(programs))
@settings(max_examples=80, deadline=None)
def test_reachable_widths_count_the_nodes_some_input_visits(p):
    visited = [set() for _ in range(p.n + 1)]
    for bits in all_inputs(p.n):
        for seen, at in zip(visited, node_trace(p, bits)):
            seen.update(at if p.kind == "nondeterministic" else [at])
    assert reachable_widths(p).per_level == tuple(map(len, visited))


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


def assert_every_split_gives_the_forward_table(p):
    """``core._split_table`` at every cut ``h`` against ``h = n``, which is
    plain forward doubling: exactly for the classical kinds, within 1e-12
    for the vector kinds, and never below 0."""
    forward = core._split_table(p, p.n)
    assert forward.shape == (1 << p.n,)
    for h in range(p.n + 1):
        table = core._split_table(p, h)
        assert table.min() >= 0
        if p.kind in ("deterministic", "nondeterministic"):
            assert np.array_equal(table, forward)
        else:
            np.testing.assert_allclose(table, forward, rtol=0, atol=1e-12)


@pytest.mark.parametrize("program", [
    build_det_notpal(9),
    build_nobdd_noto_fingerprint(4, 9),
    lift_deterministic(build_det_mod(3, 9)),
    build_quantum_partialmod(1, 9),
], ids=lambda p: p.kind)
def test_every_split_point_gives_the_forward_table(program):
    assert_every_split_gives_the_forward_table(program)


@given(st.sampled_from(KINDS).flatmap(programs))
@settings(max_examples=120, deadline=None)
def test_every_split_point_gives_the_forward_table_under_any_order(p):
    assert_every_split_gives_the_forward_table(p)
    assert_every_split_gives_the_forward_table(replace(p, accept=frozenset()))


@given(small_nobdds())
@settings(max_examples=60, deadline=None)
def test_subset_construction_preserves_acceptance(p):
    assert validate_program(p).ok
    d = nobdd_to_obdd_subset(p)
    assert validate_program(d).ok
    for bits in all_inputs(p.n):
        assert simulate(d, bits) == simulate(p, bits)


def reference_subset_construction(p):
    """The subset construction over frozensets, with no numpy stepping:
    subsets are scanned in number order, and an image not seen before on
    this level gets the next number at its first (subset, symbol) row."""
    subsets, widths, maps = [frozenset({p.initial})], [1], []
    for t in p.levels:
        rel = t.tolist()
        succ = [[frozenset(u for u, row in enumerate(rel[sym]) if row[s])
                 for s in range(len(rel[sym][0]))] for sym in (0, 1)]
        number, on = {}, ([], [])
        for subset in subsets:
            for sym in (0, 1):
                image = frozenset().union(*(succ[sym][s] for s in subset))
                on[sym].append(number.setdefault(image, len(number)))
        subsets = list(number)
        widths.append(len(subsets))
        maps.append(level_map(*on))
    return ObddProgram(
        kind="deterministic", order=p.order, widths=tuple(widths), levels=tuple(maps),
        initial=0, accept=frozenset(i for i, s in enumerate(subsets) if s & p.accept),
    )


@given(small_nobdds())
@settings(max_examples=100, deadline=None)
def test_subset_construction_matches_the_frozenset_reference(p):
    assert programs_structurally_equal(nobdd_to_obdd_subset(p), reference_subset_construction(p))


#: sha256 prefixes of the documents of the determinized fingerprint
#: programs (the bench's verify parameters), recorded from the earlier
#: implementation that ranked the bool image rows with np.unique(axis=0)
SUBSET_DOCUMENT_DIGESTS = {
    ("noto", 4, 10): "0795441fcb5a113e",
    ("noto", 6, 10): "8e25cb8907c5d6c3",
    ("noto", 8, 10): "c5b9d47b2135fd8e",
    ("noteqs", 4, 10): "75c364296afa0e62",
    ("noteqs", 8, 10): "97f503dedf3bc28a",
    ("noto", 4, 11): "9bdcf45a2d681e88",
    ("noto", 6, 11): "4b521d9b0dc4a27f",
    ("noto", 8, 11): "87b9138fa1a85e3b",
    ("noteqs", 4, 11): "d7489c71f4d84e2c",
    ("noteqs", 8, 11): "daac44bc1c0b0c58",
    ("noto", 4, 12): "03e037ed043b63a1",
    ("noto", 6, 12): "b9e8f576d911dff3",
    ("noto", 8, 12): "20ed86120ab5961f",
    ("noteqs", 4, 12): "12bbced3d5c0eced",
    ("noteqs", 8, 12): "938bb62dfcfd0282",
}


@pytest.mark.parametrize("name, k, n", list(SUBSET_DOCUMENT_DIGESTS))
def test_fingerprint_subset_construction_matches_the_reference_and_its_record(name, k, n):
    build = {"noto": build_nobdd_noto_fingerprint, "noteqs": build_nobdd_noteqs_fingerprint}
    p = build[name](k, n)
    d = nobdd_to_obdd_subset(p)
    reference = reference_subset_construction(p)
    assert programs_structurally_equal(d, reference)
    text = encode_program(d)
    assert text == encode_program(reference)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SUBSET_DOCUMENT_DIGESTS[name, k, n]


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


@st.composite
def sparse_chains(draw):
    """Successor sets of at most 12 states.  Most edges step from one of
    ``layers`` labels to the next, so closed classes tend to be cyclic; a
    few free edges add transient states and break some cycles."""
    size = draw(st.integers(1, 12))
    layers = draw(st.integers(1, 4))
    layer = draw(st.lists(st.integers(0, layers - 1), min_size=size, max_size=size))
    state = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(state, state), max_size=3 * size))
    free = draw(st.lists(st.tuples(state, state), max_size=2))
    succ = [set() for _ in range(size)]
    for s, t in pairs:
        if layer[t] == (layer[s] + 1) % layers:
            succ[s].add(t)
    for s, t in free:
        succ[s].add(t)
    for s in range(size):
        if not succ[s]:
            succ[s].add(draw(state))
    return succ


def reference_classification(succ):
    """Transient set, classes, periods, cyclic subsets and lcm of a chain
    given by successor sets, from BFS over Python sets."""
    size = len(succ)
    reach = []
    for s in range(size):
        seen, todo = {s}, [s]
        while todo:
            for v in succ[todo.pop()] - seen:
                seen.add(v)
                todo.append(v)
        reach.append(seen)
    ergodic = [all(s in reach[t] for t in reach[s]) for s in range(size)]
    classes, periods, subsets = [], [], []
    for root in range(size):
        if not ergodic[root] or min(reach[root]) != root:
            continue
        depth, frontier = {root: 0}, [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u] - depth.keys():
                    depth[v] = depth[u] + 1
                    nxt.append(v)
            frontier = nxt
        period = 0
        for u in reach[root]:
            for v in succ[u]:
                period = math.gcd(period, depth[u] + 1 - depth[v])
        classes.append(frozenset(reach[root]))
        periods.append(period)
        subsets.append(tuple(frozenset(u for u in reach[root] if depth[u] % period == r)
                             for r in range(period)))
    transient = frozenset(s for s in range(size) if not ergodic[s])
    return transient, tuple(classes), tuple(periods), tuple(subsets), math.lcm(*periods)


@given(sparse_chains())
@settings(max_examples=300, deadline=None)
def test_classification_matches_a_set_based_reference(succ):
    m = np.zeros((len(succ), len(succ)))
    for s, targets in enumerate(succ):
        m[list(targets), s] = 1.0 / len(targets)
    dec = classify_states(m)
    assert (dec.transient, dec.ergodic_classes, dec.periods, dec.cyclic_subsets,
            dec.period_lcm) == reference_classification(succ)


@given(random_tables(codes=[0, 1]))
@settings(max_examples=40, deadline=None)
def test_partition_oracle_matches_subfunction_oracle_on_total_tables(f):
    assert (partial_min_width_exact(f, class_cap=64).per_level
            == subfunction_widths(f).per_level)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1]), min_size=1 << n, max_size=1 << n)))
@settings(max_examples=40, deadline=None)
def test_order_search_report_matches_the_permutation_loop(values):
    """The whole report -- widths, maximum and order -- is the one of the
    first order of least width in ``itertools.permutations`` order."""
    f = from_table(np.array(values, dtype=np.int8))
    best = min((subfunction_widths(f, VariableOrder(f.n, perm))
                for perm in itertools.permutations(range(f.n))),
               key=lambda report: report.max_width)
    report = oracles.min_width_over_orders(f)
    assert (report.per_level, report.max_width, report.order) == (
        best.per_level, best.max_width, best.order)


@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1, STAR]), min_size=1 << n, max_size=1 << n)))
@settings(max_examples=25, deadline=None)
def test_order_search_on_a_partial_asymmetric_table_tries_every_order(values):
    """A partial table that :func:`oracles._symmetric` rejects gets the
    report of the first order of least width under the partition search,
    and ``minimal_obdd`` under that order computes it at that width."""
    table = np.array(values, dtype=np.int8)
    n = table.size.bit_length() - 1
    assume(STAR in table and not oracles._symmetric(table, n))
    f = from_table(table)
    best = min((partial_min_width_exact(f, VariableOrder(n, perm))
                for perm in itertools.permutations(range(n))),
               key=lambda report: report.max_width)
    report = oracles.min_width_over_orders(f)
    assert (report.per_level, report.order) == (best.per_level, best.order)
    assert "per-order partition search" in report.method
    program = minimal_obdd(f, VariableOrder(n, report.order))
    assert program_width(program).max_width == report.max_width
    assert computes(program, f, AcceptanceMode.deterministic()).ok


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


def reference_stable_search(f, w, kind):
    """The first stable program, in the documented index order, that some
    accepting set makes compute ``f``, with that set; or None.  Brute force
    over successor choices, stepping each input on Python sets; shares no
    code with the library's search."""
    if kind == "deterministic":
        choices = [{t} for t in range(w)]
    else:
        choices = [{t for t in range(w) if m >> t & 1} for m in range(1 << w)]
    table = f.truth_table()
    # digit sym * w + s of the index is the choice of node s on symbol sym;
    # product varies its last position fastest, so that is digit 0
    for combo in itertools.product(choices, repeat=2 * w):
        succ = combo[::-1]
        yes, forbidden = [], set()
        for i, bits in enumerate(all_inputs(f.n)):
            if table[i] == STAR:
                continue
            reached = {0}
            for b in bits:
                reached = set().union(*(succ[int(b) * w + s] for s in reached))
            if table[i] == 1:
                yes.append(reached)
            else:
                forbidden |= reached
        if all(reached - forbidden for reached in yes):
            accept = set().union(*yes) - forbidden
            return [[sorted(succ[sym * w + s]) for s in range(w)] for sym in (0, 1)], accept
    return None


def product_state_search(f, w, kind):
    """The first stable program, in the documented index order, that some
    accepting set makes compute ``f``, with that set; or None.  The search
    as it stood before bit-slicing: a chunk of programs is one
    deterministic level on the states ``i * 2**w + M`` (program ``i`` with
    reachable node set ``M``), doubled ``n`` times through the core kernel.
    Fast enough for the 2**18 nondeterministic programs of width 3, which
    the brute force above is not."""
    n = f.n
    table = f.truth_table()
    yes, no = table == 1, table == 0
    count = w ** (2 * w) if kind == "deterministic" else 1 << (2 * w * w)
    digit = np.arange(2 * w, dtype=np.int64).reshape(2, w, 1)  # sym * w + s
    chunk = max(1, (1 << 18) >> max(n, w))
    for first in range(0, count, chunk):
        idx = np.arange(first, min(first + chunk, count), dtype=np.int64)
        if kind == "deterministic":  # sets[sym, s, i]: successors as a bit mask
            sets = 1 << (idx // w ** digit % w)
        else:
            sets = idx >> (w * digit) & ((1 << w) - 1)
        images = np.zeros((1 << w, 2, idx.size), dtype=np.int64)  # [M, sym, i]
        for m in range(1, 1 << w):
            low = m & -m
            images[m] = images[m ^ low] | sets[:, low.bit_length() - 1]
        images += np.arange(idx.size) << w
        level = np.ascontiguousarray(images.transpose(2, 0, 1)).reshape(-1, 2).T
        start = (np.arange(idx.size) << w) + 1  # the sets {0}
        finals = core._double([level] * n, start).reshape(idx.size, -1) & ((1 << w) - 1)
        forbidden = np.bitwise_or.reduce(finals[:, no], axis=1)
        feasible = ((finals[:, yes] & ~forbidden[:, None]) != 0).all(axis=1)
        if feasible.any():
            i = int(feasible.argmax())
            accept = int(np.bitwise_or.reduce(finals[i, yes])) & ~int(forbidden[i])
            rows = [[[t for t in range(w) if sets[sym, s, i] >> t & 1] for s in range(w)]
                    for sym in (0, 1)]
            return rows, {t for t in range(w) if accept >> t & 1}
    return None


def assert_found_as_reference(found, want, f, w, kind):
    """The library's search result ``found`` and a reference's ``want``
    are both None, or the same transition arrays and accepting set, and
    the program computes ``f``."""
    assert (found is None) == (want is None)
    if found is None:
        return
    rows, accept = want
    if kind == "deterministic":
        level = level_map(*([succ for (succ,) in row] for row in rows))
        mode = AcceptanceMode.deterministic()
    else:
        level = level_relation(*rows, w)
        mode = AcceptanceMode.nondeterministic()
    assert found.stable and all(np.array_equal(t, level) for t in found.levels)
    assert found.accept == accept
    assert computes(found, f, mode).ok


@st.composite
def stable_program_tables(draw, kind, w, max_n=5):
    """The table of a random stable program, partly undefined: a hit
    exists, and usually more than one, so the index order decides which is
    found."""
    n = draw(st.integers(1, max_n))
    if kind == "deterministic":
        rows = [[draw(st.integers(0, w - 1)) for _ in range(w)] for _ in range(2)]
        level = level_map(*rows)
    else:
        rows = [[draw(st.sets(st.integers(0, w - 1))) for _ in range(w)] for _ in range(2)]
        level = level_relation(*rows, w)
    p = ObddProgram(
        kind=kind, order=natural_order(n), widths=(w,) * (n + 1), levels=(level,) * n,
        initial=0, accept=frozenset(draw(st.sets(st.integers(0, w - 1)))),
    )
    table = acceptance_table(p).astype(np.int8)
    table[draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))] = STAR
    return from_table(table)


@st.composite
def stable_search_cases(draw):
    kind = draw(st.sampled_from(["deterministic", "nondeterministic"]))
    w = draw(st.integers(1, 3 if kind == "deterministic" else 2))
    if draw(st.booleans()):
        f = draw(st.sampled_from([[0, 1], [0, 1, STAR], [0, STAR], [1, STAR]])
                 .flatmap(lambda codes: random_tables(codes=codes)))
    else:
        f = draw(stable_program_tables(kind, w))
    return f, w, kind


def table_of(text):
    return from_table(np.array([STAR if c == "*" else int(c) for c in text], dtype=np.int8))


# these spaces are 1-12 words, so phase 1 runs only where a test forces it
# on, here with samples of no input, one input of each value and every
# defined input (no table here has 2**16 of one value)
@pytest.mark.parametrize("samples", [None, (0,), (1,), (1 << 16,)],
                         ids=["default", "no sample", "one of each", "every input"])
@given(case=stable_search_cases())
# the found program's 1-inputs also reach node 0, which a 0-input reaches,
# so the accepting set is {1}, not every node a 1-input reaches
@example(case=(table_of("0111"), 2, "nondeterministic"))
@settings(max_examples=80, deadline=None)
def test_stable_search_matches_the_brute_force_reference(samples, case):
    f, w, kind = case
    with pytest.MonkeyPatch.context() as patch:
        if samples is not None:
            patch.setattr(oracles, "_REFUTE_PLANES", 0)
            patch.setattr(oracles, "_REFUTE_SAMPLES", samples)
        found = oracles.stable_exhaustive_search(f, w, kind)
    assert_found_as_reference(found, reference_stable_search(f, w, kind), f, w, kind)


@given(case=stable_search_cases(), m=st.sampled_from([0, 1, 2, 6, 1 << 16]))
@settings(max_examples=60, deadline=None)
def test_phase_one_keeps_every_feasible_program(case, m):
    """On one chunk of the whole space, every program the full check finds
    feasible survives phase 1, and with every defined input sampled the two
    agree lane for lane."""
    f, w, kind = case
    table = f.truth_table()
    yes, no = table == 1, table == 0
    count = w ** (2 * w) if kind == "deterministic" else 1 << (2 * w * w)
    edges = oracles._edge_planes(kind, w, 0, -(-count // 64))
    planes = oracles._final_planes(edges, f.n)
    forbidden = np.bitwise_or.reduce(planes[no], axis=0)
    feasible = np.bitwise_and.reduce(np.bitwise_or.reduce(planes[yes] & ~forbidden, axis=1), axis=0)
    kept = oracles._survivors(edges, *oracles._sample_tree(yes, no, f.n, m))
    assert not (feasible & ~kept).any()
    if m == 1 << 16:
        assert np.array_equal(kept, feasible)


@pytest.mark.parametrize("kind", ["deterministic", "nondeterministic"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("codes", [[STAR], [1], [1, STAR], [0], [0, STAR]])
def test_stable_search_on_tables_without_0_or_1_inputs(codes, n, kind):
    f = from_table(np.resize(np.array(codes, dtype=np.int8), 1 << n))
    for w in (1, 2):
        found = oracles.stable_exhaustive_search(f, w, kind)
        assert_found_as_reference(found, reference_stable_search(f, w, kind), f, w, kind)
        if codes == [STAR]:  # program 0, accepting nowhere
            assert found.accept == frozenset() and not found.levels[0].any()


@pytest.mark.parametrize("f", [partial_mod(1, 6), not_o(6)])
def test_stable_search_matches_product_states_at_nondeterministic_width_3(f):
    found = oracles.stable_exhaustive_search(f, 3, "nondeterministic")
    want = product_state_search(f, 3, "nondeterministic")
    assert_found_as_reference(found, want, f, 3, "nondeterministic")


@given(stable_program_tables("nondeterministic", 3, max_n=6))
@settings(max_examples=10, deadline=None)
def test_stable_search_matches_product_states_on_width_3_program_tables(f):
    found = oracles.stable_exhaustive_search(f, 3, "nondeterministic")
    want = product_state_search(f, 3, "nondeterministic")
    assert want is not None
    assert_found_as_reference(found, want, f, 3, "nondeterministic")


def enumeration_index(p):
    """The index of a stable program in the search's enumeration: base-w
    digit ``sym*w + s`` is the successor of node ``s`` on ``sym``, or bit
    ``w*(sym*w + s) + u`` says whether ``u`` is one (oracles docstring)."""
    level, w = p.levels[0], p.widths[0]
    if p.kind == "deterministic":
        return sum(int(level[sym, s]) * w ** (sym * w + s) for sym in (0, 1) for s in range(w))
    return sum(1 << w * (sym * w + s) + u
               for sym in (0, 1) for s in range(w) for u in range(w) if level[sym, u, s])


# No table has its first hit at index 63 or 64 of these spaces: each of
# those programs has a lower one that computes what it computes.  Nor in the
# last, partial word of the 729 deterministic width-3 programs (from 704):
# swapping nodes 1 and 2 maps each of them to a lower program.
CHUNKED_CASES = [  # a table, a width, a kind and the index of the first hit
    (partial_mod(0, 4), 2, "deterministic", 6),  # in the space's one word
    (partial_mod(0, 4), 2, "nondeterministic", 105),
    (table_of("1111000011111111"), 2, "nondeterministic", 62),  # in the first word
    (table_of("0000010000000000"), 2, "nondeterministic", 66),  # in the second
    (table_of("0001"), 3, "deterministic", 85),  # in the second word
    (mod_count(3, 6), 3, "deterministic", 200),
    (table_of("0000000100000001"), 3, "deterministic", 619),  # the highest hit
    (partial_mod(1, 5), 2, "nondeterministic", None),
]


@pytest.mark.parametrize("f, w, kind, index", CHUNKED_CASES)
def test_chunked_stable_search_matches_one_chunk(f, w, kind, index, monkeypatch):
    whole = oracles.stable_exhaustive_search(f, w, kind)
    # a first chunk of one 64-program word, so hits past index 63 land in
    # later chunks
    monkeypatch.setattr(oracles, "_SEARCH_STATES", 3 << max(f.n, w))
    chunked = oracles.stable_exhaustive_search(f, w, kind)
    assert (whole is None) == (chunked is None) == (index is None)
    if whole is not None:
        assert enumeration_index(whole) == index
        assert encode_program(whole) == encode_program(chunked)


@pytest.mark.parametrize("f, w, kind, index", CHUNKED_CASES)
def test_phase_one_survivors_checked_in_batches_match_one_chunk(f, w, kind, index, monkeypatch):
    whole = oracles.stable_exhaustive_search(f, w, kind)
    # a first chunk of one word, then phase 1 on a sample of one input of
    # each value, which leaves many words, and a full check of one or two
    # words at a time at first
    monkeypatch.setattr(oracles, "_SEARCH_STATES", 3 << max(f.n, w))
    monkeypatch.setattr(oracles, "_REFUTE_PLANES", 0)
    monkeypatch.setattr(oracles, "_REFUTE_SAMPLES", (1,))
    refuted, batches = [], []
    survivors, full_check = oracles._survivors, oracles._final_planes

    def refute(*args):
        refuted.append(1)
        return survivors(*args)

    def check(edges, n):
        if refuted:
            batches.append(edges.shape[-1])
        return full_check(edges, n)

    monkeypatch.setattr(oracles, "_survivors", refute)
    monkeypatch.setattr(oracles, "_final_planes", check)
    chunked = oracles.stable_exhaustive_search(f, w, kind)
    assert (whole is None) == (chunked is None)
    if whole is not None:
        assert encode_program(whole) == encode_program(chunked)
    # a hit in word 0 is found before phase 1, one in word 1 in its first batch
    assert len(batches) > 1 or index is not None and index < 128


def reference_classes(f, order):
    """Per level, the prefix classes from a plain dict of row tuples: the
    sorted distinct rows, and the first prefix with each row.  Shares no
    code with the oracles."""
    n = f.n
    table = f.truth_table()
    ordered = []  # value of each input, indexed by its bits in test order
    for bits in itertools.product((0, 1), repeat=n):
        x = [0] * n
        for step, b in enumerate(bits):
            x[order.perm[step]] = b
        ordered.append(int(table[int("".join(map(str, x)), 2)]))
    levels = []
    for j in range(n + 1):
        size = 1 << (n - j)
        first = {}
        for p in range(1 << j):
            first.setdefault(tuple(ordered[p * size:(p + 1) * size]), p)
        levels.append((sorted(first), first))
    return levels


@st.composite
def tables_under_orders(draw):
    n = draw(st.integers(1, 7))
    codes = draw(st.sampled_from([[0, 1], [0, 1, STAR], [0, STAR], [1]]))
    values = draw(st.lists(st.sampled_from(codes), min_size=1 << n, max_size=1 << n))
    order = VariableOrder(n, draw(st.permutations(range(n))))
    return from_table(np.array(values, dtype=np.int8)), order


@given(tables_under_orders())
@settings(max_examples=150, deadline=None)
def test_bottom_up_classes_match_the_row_dict_reference(case):
    f, order = case
    classes = oracles._Classes.from_table(oracles._ordered_table(f, order)[0])
    levels = reference_classes(f, order)
    for j, (rows, first) in enumerate(levels):
        assert classes.counts[j] == len(rows)
        if j < f.n:
            below = {row: c for c, row in enumerate(levels[j + 1][0])}
            half = len(rows[0]) // 2
            for s, succ in enumerate(classes.succ[j]):
                assert succ.tolist() == [below[row[s * half:(s + 1) * half]] for row in rows]
        else:
            assert classes.leaf.tolist() == [row[0] for row in rows]
        groups = {}
        for row in rows:
            mask = tuple(v == STAR for v in row)
            groups[mask] = groups.get(mask, 0) + 1
        assert classes.star_group_maxima()[j] == max(groups.values())
        reps = prefix_classes(f, order, j)
        assert [c.representative for c in reps] == [
            format(first[row], f"0{j}b") if j else "" for row in rows]
        assert [tuple(c.row.tolist()) for c in reps] == rows
        clash = classes.clash(j)
        for a, b in itertools.product(range(len(rows)), repeat=2):
            want = any({x, y} == {0, 1} for x, y in zip(rows[a], rows[b]))
            assert bool(clash[a] >> b & 1) == want


@given(tables_under_orders())
@settings(max_examples=150, deadline=None)
def test_witness_at_the_widest_level_is_the_singleton_sequence(case):
    """``_singletons`` stands in for the search at ``w = max(counts)``: the
    search returns the same sequence there, and never branches, so never
    meets even a class cap of 0; and the program built from the witness
    computes ``f`` at the reported width."""
    f, order = case
    levels, _ = oracles._classes(f, order)
    assert oracles._search(levels, max(levels.counts), 0) == oracles._singletons(levels)
    try:
        program = minimal_obdd(f, order)
    except CapExceededError:  # a narrower width branched past the class cap
        return
    assert program_width(program).max_width == partial_min_width_exact(f, order).max_width
    assert computes(program, f, AcceptanceMode.deterministic()).ok


#: keys on either side of the crossover of _pair_ranks from searchsorted
#: to a lookup table or an argsort
RANK_SIZES = [1, 2, 7, 100, oracles._SEARCHSORTED_KEYS - 1, oracles._SEARCHSORTED_KEYS,
              oracles._SEARCHSORTED_KEYS + 1, 3 * oracles._SEARCHSORTED_KEYS]


@st.composite
def pair_rank_cases(draw):
    """Ids below ``k`` for ``_pair_ranks``, with ``k * k`` below and above
    the key count, as two flat id arrays or as the two halves of a 2-D id
    array split on one bit, as the subset search passes them."""
    size = draw(st.sampled_from(RANK_SIZES))
    k = draw(st.sampled_from([1, 2, 3, 17, 60, 50_000]))  # 50,000**2 > 2**31
    used = draw(st.integers(1, k))  # how many of the k ids occur
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = rng.choice(k, size=min(used, 64), replace=False)
    split = draw(st.sampled_from(["flat", "halves"]))
    if split == "flat":
        left, right = (alphabet[rng.integers(0, alphabet.size, size)] for _ in range(2))
    else:
        # split on bit ``low``: a power of two that divides the key count
        low = draw(st.integers(0, (size & -size).bit_length() - 1))
        ids = alphabet[rng.integers(0, alphabet.size, 2 * size)].reshape(-1, 2, 1 << low)
        left, right = ids[:, 0], ids[:, 1]
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64])) if k <= 100 else np.int32
    return left.astype(dtype), right.astype(dtype), k


@given(pair_rank_cases())
@settings(max_examples=300, deadline=None)
def test_pair_ranks_match_numpy_unique(case):
    left, right, k = case
    pairs, ids = oracles._pair_ranks(left, right, k)
    key = (left.astype(np.int64) * k + right).reshape(-1)
    want_pairs, want_ids = np.unique(key, return_inverse=True)
    assert pairs.tolist() == want_pairs.tolist()
    assert ids.tolist() == want_ids.tolist()
    assert ids.dtype == np.int32
    assert pairs.dtype == (np.int32 if k * k < 1 << 31 else np.int64)


def load_bench_reference():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


@pytest.mark.parametrize("n", [9, 10, 11, 12])
@pytest.mark.parametrize("shape", ["first bits", "last bits", "last 8 bits", "uniform"])
@pytest.mark.parametrize("codes", [[0, 1], [0, 1, STAR]], ids=["total", "partial"])
def test_class_counts_match_the_bench_reference(n, shape, codes):
    # few classes per level when the table reads 3 of its bits, many when
    # it is uniform; partial tables reach the argsort regime at n >= 10,
    # and when they read only their last 8 bits, the prefixes of one class
    # there lie apart, so ranks scattered to the wrong prefixes change the
    # count of the level above
    rng = np.random.default_rng(n)
    if shape == "uniform":
        table = rng.choice(codes, 1 << n)
    elif shape == "last 8 bits":
        table = np.tile(rng.choice(codes, 1 << 8), 1 << (n - 8))
    else:
        small = rng.choice(codes, 1 << 3)
        table = np.repeat(small, 1 << (n - 3)) if shape == "first bits" else np.tile(small, 1 << (n - 3))
    table = table.astype(np.int8).reshape(-1)
    classes = oracles._Classes.from_table(table)
    assert classes.counts == load_bench_reference().natural_widths(table, n)
    assert classes.ids[n].dtype == np.int8
    assert all(ids.dtype == np.int32 for ids in classes.ids[:n])


# ---------------------------------------------------------------------------
# fuzzing the text formats: only the typed errors may escape
# ---------------------------------------------------------------------------

BAD_TOKENS = ["nan", "1e400", "-1", "1j", "nan,nan", "0,1e400"]


@st.composite
def mutated(draw, lines):
    """``lines`` after one or two deletions, duplications or
    replacements of a line or of one token in a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 2))):
        if not lines:
            break
        at = draw(st.sampled_from(range(len(lines))))
        action = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        tokens = lines[at].split()
        if draw(st.booleans()) and tokens:
            i = draw(st.sampled_from(range(len(tokens))))
            if action == "delete":
                del tokens[i]
            elif action == "duplicate":
                tokens.insert(i, tokens[i])
            else:
                tokens[i] = draw(st.sampled_from(BAD_TOKENS))
            lines[at] = " ".join(tokens)
        elif action == "delete":
            del lines[at]
        elif action == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(st.sampled_from(BAD_TOKENS + [""]))
    return lines


@given(st.sampled_from(KINDS).flatmap(programs), st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_program_documents_fail_only_with_typed_errors(p, data):
    lines = data.draw(mutated(encode_program(p).splitlines()))
    try:
        q = decode_program("\n".join(lines) + "\n")
    except (ProgramFormatError, InvalidProgramError):
        return
    assert validate_program(q).ok
    assert all(np.isfinite(t).all() for t in q.levels)


@given(random_tables(codes=[0, 1, STAR]), st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_truth_tables_fail_only_with_value_errors(f, data):
    lines = data.draw(mutated(format_truth_table(f).splitlines()))
    try:
        g = read_truth_table(io.StringIO("\n".join(lines) + "\n"))
    except ValueError:
        return
    assert g.n >= 1 and g.truth_table().shape == (1 << g.n,)


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    """Under the project's pytest settings a failing ``@given`` test ends
    the run with exit code 1 (tests failed), not 3 (internal error): the
    warning filters must let hypothesis load what it reports with."""
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
