import itertools
import math

import numpy as np
import pytest

from obddlab import (
    AcceptanceMode,
    computes,
    node_trace,
    program_width,
    simulate,
    stable_symbol_chain,
    validate_program,
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
    primes_for_fingerprint,
    quantum_noto_cutoff,
)
from obddlab.functions import (
    eqs,
    mod_count,
    not_eqs,
    not_o,
    not_o_prefix,
    not_pal,
    partial_mod,
)
from obddlab.serialize import encode_program


# ---------------------------------------------------------------------------
# prime bases
# ---------------------------------------------------------------------------

def test_prime_basis_examples():
    assert primes_for_fingerprint(4).primes == (2, 3)
    assert primes_for_fingerprint(6).primes == (2, 3, 5)
    assert primes_for_fingerprint(4, odd_only=True).primes == (3, 5)
    assert primes_for_fingerprint(1).primes == (2,)


@pytest.mark.parametrize("bound", [1, 2, 4, 6, 17, 100, 5040])
@pytest.mark.parametrize("odd_only", [False, True])
def test_prime_basis_is_minimal(bound, odd_only):
    basis = primes_for_fingerprint(bound, odd_only)
    assert basis.product > bound
    assert math.prod(basis.primes[:-1]) <= bound
    if odd_only:
        assert 2 not in basis.primes
    assert list(basis.primes) == sorted(basis.primes)


def test_prime_basis_rejects_bad_bound():
    with pytest.raises(ValueError):
        primes_for_fingerprint(0)


@pytest.mark.parametrize("bad", [True, 2.5, "7"])
def test_prime_basis_bound_must_be_integral(bad):
    with pytest.raises(ValueError, match="^bound must be integral"):
        primes_for_fingerprint(bad)


def test_prime_basis_reads_a_whole_float_bound_as_int():
    basis = primes_for_fingerprint(7.0)
    assert basis == primes_for_fingerprint(7) and type(basis.bound) is int


# ---------------------------------------------------------------------------
# every builder validates
# ---------------------------------------------------------------------------

BUILT = [
    build_quantum_partialmod(1, 8),
    build_det_partialmod(1, 8),
    build_det_mod(3, 6),
    build_nobdd_noto_fingerprint(4, 8),
    build_nobdd_noteqs_fingerprint(4, 8),
    build_det_eqs(4, 8),
    build_det_notpal(7),
    build_quantum_nondet_noto(6),
]


@pytest.mark.parametrize("program", BUILT, ids=lambda p: p.kind + str(p.n))
def test_builders_produce_valid_programs(program):
    assert validate_program(program).ok


@pytest.mark.parametrize("build, sizes", [
    (build_quantum_partialmod, (1, 4)), (build_det_counter, (3, 4)),
    (build_det_partialmod, (1, 4)), (build_det_mod, (2, 10)),
    (build_nobdd_noto_fingerprint, (4, 8)), (build_nobdd_noteqs_fingerprint, (4, 8)),
    (build_det_eqs, (4, 8)), (build_det_notpal, (6,)), (build_quantum_nondet_noto, (4,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_builder_sizes_must_be_integral(build, sizes):
    want = encode_program(build(*sizes))
    for i, size in enumerate(sizes):
        for bad in (size + 0.5, True):
            with pytest.raises(ValueError, match="must be integral"):
                build(*sizes[:i], bad, *sizes[i + 1:])
        # an integral float reads as its int
        assert encode_program(build(*sizes[:i], float(size), *sizes[i + 1:])) == want


FAMILY_OF = [
    (build_quantum_partialmod, partial_mod), (build_det_partialmod, partial_mod),
    (build_det_mod, mod_count), (build_nobdd_noto_fingerprint, not_o_prefix),
    (build_det_eqs, eqs), (build_nobdd_noteqs_fingerprint, not_eqs),
    (build_det_notpal, not_pal), (build_quantum_nondet_noto, not_o),
]


def _refusal(call, *args):
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("build, family", FAMILY_OF, ids=lambda v: v.__name__)
def test_builders_refuse_what_their_family_refuses(build, family):
    arity = 1 if family in (not_pal, not_o) else 2
    sizes = (-1, 0, 1, 2, 3, 4, 5, 8, 4.0, 2.5, True, "4")
    for args in itertools.product(sizes, repeat=arity):
        assert _refusal(build, *args) == _refusal(family, *args), args


# one array per kind of level: fan-out/first, then the repeated kinds, then
# idle (or the NotPAL middle bit) only when such levels exist
SHARED_LEVELS = [
    (build_nobdd_noto_fingerprint, (4, 7), {"fan-out", "count", "idle"}),
    (build_nobdd_noto_fingerprint, (4, 8), {"fan-out", "count", "idle"}),
    (build_nobdd_noto_fingerprint, (6, 6), {"fan-out", "count"}),
    (build_det_eqs, (4, 7), {"first", "marker", "value", "idle"}),
    (build_det_eqs, (4, 10), {"first", "marker", "value", "idle"}),
    (build_det_eqs, (8, 8), {"first", "marker", "value"}),
    (build_nobdd_noteqs_fingerprint, (4, 9), {"first", "marker", "value", "idle"}),
    (build_nobdd_noteqs_fingerprint, (4, 6), {"first", "marker", "value", "idle"}),
    (build_nobdd_noteqs_fingerprint, (8, 8), {"first", "marker", "value"}),
    (build_det_notpal, (2,), {"first", "close"}),
    (build_det_notpal, (8,), {"first", "open", "close"}),
    (build_det_notpal, (9,), {"first", "open", "close", "middle"}),
]


@pytest.mark.parametrize("build, args, kinds", SHARED_LEVELS,
                         ids=[f"{b.__name__}{a}" for b, a, _ in SHARED_LEVELS])
def test_repeated_levels_share_one_array(build, args, kinds):
    p = build(*args)
    assert len({id(t) for t in p.levels}) == len(kinds)


# ---------------------------------------------------------------------------
# quantum counting program
# ---------------------------------------------------------------------------

def test_quantum_partialmod_has_width_2_and_is_stable_id():
    p = build_quantum_partialmod(2, 16)
    assert program_width(p).max_width == 2
    assert p.stable and p.order.is_id


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_quantum_partialmod_matches_rotation_closed_form(k):
    n = 4 * (k + 1)
    p = build_quantum_partialmod(k, n)
    theta = math.pi / (1 << (k + 1))
    for m in range(n + 1):
        bits = "1" * m + "0" * (n - m)
        assert simulate(p, bits) == pytest.approx(math.cos(m * theta) ** 2, abs=1e-12)


def test_quantum_partialmod_exactness_on_paper_instances():
    p = build_quantum_partialmod(1, 8)
    assert simulate(p, "11110000") == pytest.approx(1.0, abs=1e-9)
    assert simulate(p, "11000000") == pytest.approx(0.0, abs=1e-9)
    assert computes(p, partial_mod(1, 8), AcceptanceMode.exact()).ok


# ---------------------------------------------------------------------------
# deterministic counters
# ---------------------------------------------------------------------------

def test_det_partialmod_width_and_correctness():
    p = build_det_partialmod(1, 6)
    assert program_width(p).max_width == 4
    assert computes(p, partial_mod(1, 6), AcceptanceMode.deterministic()).ok
    q = build_det_partialmod(0, 2)
    assert program_width(q).max_width == 2


def test_det_partialmod_symbol_chain_is_cyclic_shift():
    m = stable_symbol_chain(build_det_partialmod(1, 8), 1)
    assert np.array_equal(m, np.roll(np.eye(4), 1, axis=0))


def test_det_mod_width_and_accepted_inputs():
    p = build_det_mod(3, 6)
    assert program_width(p).max_width == 3
    assert simulate(p, "111000") == 1.0
    assert simulate(p, "010101") == 1.0
    assert simulate(p, "000000") == 1.0
    assert simulate(p, "111111") == 1.0
    assert simulate(p, "110000") == 0.0


def test_det_mod_computes_exhaustively():
    assert computes(build_det_mod(5, 10), mod_count(5, 10), AcceptanceMode.deterministic()).ok


def test_det_mod_parameter_constraints():
    with pytest.raises(ValueError):
        build_det_mod(1, 6)
    with pytest.raises(ValueError):
        build_det_mod(4, 6)


# ---------------------------------------------------------------------------
# fingerprint programs
# ---------------------------------------------------------------------------

def test_noto_fingerprint_computes_and_respects_width_bound():
    p = build_nobdd_noto_fingerprint(4, 6)
    basis = primes_for_fingerprint(4)
    assert program_width(p).max_width <= 1 + sum(basis.primes)
    assert computes(p, not_o_prefix(4, 6), AcceptanceMode.nondeterministic()).ok


def test_noto_fingerprint_k6_width():
    p = build_nobdd_noto_fingerprint(6, 8)
    assert primes_for_fingerprint(6).primes == (2, 3, 5)
    assert program_width(p).max_width <= 11


def test_noto_fingerprint_balanced_prefix_rejects_in_every_branch():
    p = build_nobdd_noto_fingerprint(4, 6)
    assert simulate(p, "110000") == 0.0      # first 4 bits balanced
    assert simulate(p, "100100") == 0.0
    assert simulate(p, "110100") == 1.0


def test_noto_fingerprint_final_residues_match_count():
    k, n = 6, 8
    p = build_nobdd_noto_fingerprint(k, n)
    primes = primes_for_fingerprint(k).primes
    offsets = [0, *np.cumsum(primes).tolist()]
    for bits in ("11100000", "10101011", "11111100"):
        m = bits[:k].count("1")
        expected = frozenset(offsets[i] + (m % p) for i, p in enumerate(primes))
        assert node_trace(p, bits)[-1] == expected


def test_noteqs_fingerprint_computes_and_respects_width_bound():
    k, n = 4, 8
    p = build_nobdd_noteqs_fingerprint(k, n)
    basis = primes_for_fingerprint(1 << (k // 4), odd_only=True)
    bound = 2 * sum(basis.primes) * (k // 4 + 1) ** 2 + 1
    assert program_width(p).max_width <= bound
    assert computes(p, not_eqs(k, n), AcceptanceMode.nondeterministic()).ok


def test_noteqs_fingerprint_unanimity_cases():
    p = build_nobdd_noteqs_fingerprint(4, 8)
    assert simulate(p, "01110000") == 0.0    # equal routed strings: all branches reject
    assert simulate(p, "01100000") == 1.0    # equal lengths, different bits
    assert simulate(p, "00000000") == 1.0    # all markers 0: lengths differ


def test_fingerprint_parameter_constraints():
    with pytest.raises(ValueError):
        build_nobdd_noto_fingerprint(3, 6)
    with pytest.raises(ValueError):
        build_nobdd_noto_fingerprint(8, 6)
    with pytest.raises(ValueError):
        build_nobdd_noteqs_fingerprint(6, 12)


# ---------------------------------------------------------------------------
# shuffled equality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(4, 11), (8, 27)])
def test_eqs_width_formula(k, expected):
    p = build_det_eqs(k, max(k, 12))
    assert program_width(p).max_width == expected == 8 * 2 ** (k // 4) - 5


@pytest.mark.parametrize("n", [4, 6, 8])
def test_eqs_computes_exhaustively(n):
    assert computes(build_det_eqs(4, n), eqs(4, n), AcceptanceMode.deterministic()).ok


def test_eqs_k8_computes_exhaustively():
    assert computes(build_det_eqs(8, 8), eqs(8, 8), AcceptanceMode.deterministic()).ok


def test_noteqs_fingerprint_k8_uses_two_odd_primes():
    # two branches with different modular inverses of 2
    assert primes_for_fingerprint(1 << 2, odd_only=True).primes == (3, 5)
    p = build_nobdd_noteqs_fingerprint(8, 8)
    assert computes(p, not_eqs(8, 8), AcceptanceMode.nondeterministic()).ok


# ---------------------------------------------------------------------------
# palindromes
# ---------------------------------------------------------------------------

def test_notpal_values():
    p = build_det_notpal(4)
    assert simulate(p, "0110") == 0.0
    assert simulate(p, "0111") == 1.0


@pytest.mark.parametrize("n", range(2, 17))
def test_notpal_width_is_3(n):
    assert program_width(build_det_notpal(n)).max_width == 3


def test_notpal_at_one_bit_has_width_2():
    assert program_width(build_det_notpal(1)).max_width == 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_notpal_computes_exhaustively(n):
    assert computes(build_det_notpal(n), not_pal(n), AcceptanceMode.deterministic()).ok


def test_notpal_uses_the_pairing_order():
    assert build_det_notpal(6).order.perm == (0, 5, 1, 4, 2, 3)


# ---------------------------------------------------------------------------
# quantum nondeterminism
# ---------------------------------------------------------------------------

def test_quantum_noto_closed_form_values():
    p = build_quantum_nondet_noto(4)
    phi = math.pi / 5
    assert simulate(p, "0101") == pytest.approx(0.0, abs=1e-12)
    assert simulate(p, "1101") == pytest.approx(math.sin(2 * phi) ** 2, abs=1e-12)
    assert simulate(p, "1111") == pytest.approx(math.sin(4 * phi) ** 2, abs=1e-12)
    assert simulate(p, "1111") > quantum_noto_cutoff(4)


def test_quantum_noto_cutoff_separates_zero_from_nonzero():
    for n in range(2, 11):
        p = build_quantum_nondet_noto(n)
        cutoff = quantum_noto_cutoff(n)
        for m in range(n + 1):
            bits = "1" * m + "0" * (n - m)
            prob = simulate(p, bits)
            if 2 * m == n:
                assert prob <= 1e-18
            else:
                assert prob > 2 * cutoff / 1.999  # at least factor-2 margin


@pytest.mark.parametrize("n", [2, 4, 5, 8])
def test_quantum_noto_computes_with_cutoff(n):
    mode = AcceptanceMode.nondeterministic(quantum_noto_cutoff(n))
    assert computes(build_quantum_nondet_noto(n), not_o(n), mode).ok


def test_quantum_noto_width_2():
    assert program_width(build_quantum_nondet_noto(9)).max_width == 2
