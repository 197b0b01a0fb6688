import io
import warnings

import numpy as np
import pytest

from obddlab import STAR
from obddlab.functions import (
    eqs,
    format_truth_table,
    from_table,
    make_function,
    mod_count,
    not_eqs,
    not_o,
    not_o_prefix,
    not_pal,
    not_power,
    not_square,
    partial_mod,
    read_truth_table,
    split_marker_value,
    _eqs_prefix_values,
    _table_from_count_profile,
)


# ---------------------------------------------------------------------------
# definitions on concrete inputs
# ---------------------------------------------------------------------------

def test_partial_mod_values():
    f = partial_mod(1, 4)
    assert f("1111") == 1        # four ones, 0 mod 4
    assert f("0011") == 0        # two ones, 2 mod 4
    assert f("0001") is None     # odd counts are undefined
    assert f("0000") == 1


def test_not_o_values():
    f = not_o(4)
    assert f("0101") == 0
    assert f("0111") == 1
    assert all(not_o(5)(format(i, "05b")) == 1 for i in range(32))


def test_not_square_and_not_power_values():
    f = not_square(6)
    assert f("001111") == 0      # two zeros, four ones: 2**2 == 4
    assert f("011111") == 1      # one zero: 1 != 5
    g = not_power(6)
    assert g("001111") == 0      # 2**2 == 4 ones
    assert g("000111") == 1      # 2**3 != 3
    # all-ones input: zero zeros, 2**0 = 1 one required
    assert not_power(1)("1") == 0
    assert not_power(3)("111") == 1


def test_eqs_values_from_marker_rule():
    f = eqs(4, 8)
    assert f("01110000") == 1    # alpha = (1), beta = (1)
    assert f("01100000") == 0    # alpha = (1), beta = (0)
    assert f("00110000") == 0    # alpha = (0), beta = (1)
    assert f("00000000") == 0    # alpha = (0,0), beta = () differ in length


def test_not_pal_values():
    f = not_pal(4)
    assert f("0110") == 0
    assert f("0111") == 1
    assert not_pal(5)("01110") == 0
    assert not_pal(5)("01100") == 1


def test_split_marker_value_examples():
    s = split_marker_value("01110000", 4)
    assert (s.alpha, s.beta) == ((1,), (1,))
    s = split_marker_value("00000000", 4)
    assert (s.alpha, s.beta) == ((0, 0), ())
    # markers both 1 route both value bits right
    s = split_marker_value("10100000", 4)
    assert (s.alpha, s.beta) == ((), (0, 0))


def test_split_marker_value_parameter_checks():
    with pytest.raises(ValueError):
        split_marker_value("0101", 2)
    with pytest.raises(ValueError):
        split_marker_value("01", 4)


def test_split_marker_value_takes_an_integral_k():
    for bad in (4.5, True):
        with pytest.raises(ValueError, match="^k must be integral"):
            split_marker_value("01110000", bad)
    assert split_marker_value("01110000", 4.0) == split_marker_value("01110000", 4)


# ---------------------------------------------------------------------------
# count profiles
# ---------------------------------------------------------------------------

def test_mod_profile():
    assert mod_count(3, 6).count_profile() == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 1}


def test_partial_mod_profile_at_k0():
    assert partial_mod(0, 2).count_profile() == {0: 1, 1: 0, 2: 1}


def test_not_ok_profile_runs_over_prefix_counts():
    profile = not_o_prefix(4, 10).count_profile()
    assert profile == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}


def test_eqs_is_not_symmetric():
    f = eqs(4, 8)
    assert f.count_profile() is None
    # two inputs with three ones each but different values
    assert f("01110000") == 1 and f("01101000") == 0


def test_symmetric_metadata_agrees_with_tables():
    # every input in a count class takes the class value
    for f in (partial_mod(1, 6), mod_count(3, 7), not_o(6), not_square(6), not_power(6)):
        profile = f.count_profile()
        table = f.truth_table()
        for i in range(1 << f.n):
            want = profile[bin(i).count("1")]
            assert table[i] == (STAR if want is None else want)


def test_prefix_symmetry_agrees_with_tables():
    f = not_o_prefix(4, 7)
    profile = f.count_profile()
    table = f.truth_table()
    for i in range(1 << 7):
        prefix_ones = bin(i >> 3).count("1")
        assert table[i] == profile[prefix_ones]


@pytest.mark.parametrize("f", [
    partial_mod(0, 5), partial_mod(1, 6), partial_mod(2, 7), mod_count(2, 6), mod_count(3, 7),
    not_o(6), not_o(7), not_o_prefix(4, 7), not_square(6), not_power(6), eqs(4, 8),
    not_eqs(4, 7), not_pal(7), from_table(np.array([0, 1, STAR, 1, 1, 0, STAR, 0])),
], ids=lambda f: f"{f.name}-{f.k}-{f.n}")
def test_truth_table_matches_the_per_input_evaluator(f):
    want = [f(format(i, f"0{f.n}b")) for i in range(1 << f.n)]
    assert f.truth_table().tolist() == [STAR if v is None else v for v in want]


@pytest.mark.parametrize("k", [4, 8, 12])
def test_eqs_prefix_values_match_the_split_marker_value_loop(k):
    want = []
    for p in range(1 << k):
        s = split_marker_value(format(p, f"0{k}b"), k)
        want.append(int(s.alpha == s.beta))
    got = _eqs_prefix_values(k)
    assert got.dtype == np.int8
    assert got.tolist() == want


@pytest.mark.parametrize("n", [1, 2, 5, 11, 16])
def test_count_profile_tables_index_the_codes_by_popcount(n):
    codes = np.random.default_rng(n).integers(0, 3, n + 1).astype(np.int8)
    profile = [None if c == STAR else int(c) for c in codes]
    got = _table_from_count_profile(n, profile)
    assert got.dtype == np.int8
    assert got.tolist() == [int(codes[bin(i).count("1")]) for i in range(1 << n)]


def _closed_forms(max_n):
    """Every counting-family member at n <= max_n with its number of
    counted bits and its value at m counted ones, the rules written out from the module
    docstring; NotOk counts its first k bits, k = n included."""
    for n in range(1, max_n + 1):
        for k in range(n.bit_length() + 1):
            yield partial_mod(k, n), n, \
                lambda m, k=k: 1 if m % 2 ** (k + 1) == 0 else 0 if m % 2 ** (k + 1) == 2 ** k else None
        for k in range(2, n // 2 + 1):
            yield mod_count(k, n), n, lambda m, k=k: int(m % k == 0)
        yield not_o(n), n, lambda m, n=n: int(m != n - m)
        for k in range(2, n + 1, 2):
            yield not_o_prefix(k, n), k, lambda m, k=k: int(m != k // 2)
        yield not_square(n), n, lambda m, n=n: int(m != (n - m) ** 2)
        yield not_power(n), n, lambda m, n=n: int(m != 2 ** (n - m))


def test_every_counting_member_has_its_closed_form_profile():
    seen = set()
    for f, counted, rule in _closed_forms(16):
        want = {m: rule(m) for m in range(counted + 1)}
        assert f.count_profile() == want, (f.name, f.k, f.n)
        assert f.total == (None not in want.values())
        seen.add(f.name)
    assert seen == {"PartialMOD", "MOD", "NotO", "NotOk", "NotSQUARE", "NotPOWER"}


@pytest.mark.parametrize("build, sizes", [
    (partial_mod, (1, 6)), (mod_count, (3, 8)), (not_o, (6,)), (not_o_prefix, (4, 8)),
    (not_square, (6,)), (not_power, (6,)), (eqs, (4, 8)), (not_eqs, (4, 8)), (not_pal, (6,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_family_sizes_must_be_integral(build, sizes):
    want = build(*sizes)
    for i, size in enumerate(sizes):
        for bad in (size + 0.5, True):
            with pytest.raises(ValueError, match="must be integral"):
                build(*sizes[:i], bad, *sizes[i + 1:])
        # an integral float reads as its int
        f = build(*sizes[:i], float(size), *sizes[i + 1:])
        assert (f.n, f.k) == (want.n, want.k) and type(f.n) is int
        assert np.array_equal(f.truth_table(), want.truth_table())


# ---------------------------------------------------------------------------
# family invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n", [(0, 5), (0, 16), (1, 9), (1, 16), (2, 16), (3, 16)])
def test_partial_mod_class_counts(k, n):
    period, half = 1 << (k + 1), 1 << k
    profile = partial_mod(k, n).count_profile()
    ones = [m for m, v in profile.items() if v == 1]
    zeros = [m for m, v in profile.items() if v == 0]
    stars = [m for m, v in profile.items() if v is None]
    assert len(ones) == n // period + 1
    assert ones == [m for m in range(n + 1) if m % period == 0]
    assert zeros == [m for m in range(n + 1) if m % period == half]
    assert len(stars) == n + 1 - len(ones) - len(zeros)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_not_ok_with_k_equal_n_is_not_o(n):
    assert np.array_equal(not_o_prefix(n, n).truth_table(), not_o(n).truth_table())


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_eqs_ignores_bits_past_k(n):
    table = eqs(4, n).truth_table().reshape(1 << 4, -1)
    assert np.all(table == table[:, :1])


@pytest.mark.parametrize("n", [4, 7, 10])
def test_not_eqs_is_the_inversion_of_eqs(n):
    assert np.array_equal(not_eqs(4, n).truth_table(), 1 - eqs(4, n).truth_table())


# ---------------------------------------------------------------------------
# construction and dispatch
# ---------------------------------------------------------------------------

def test_parameter_constraints():
    with pytest.raises(ValueError):
        mod_count(1, 6)          # k must exceed 1
    with pytest.raises(ValueError):
        mod_count(4, 6)          # k must stay below n/2
    with pytest.raises(ValueError):
        partial_mod(-1, 4)
    with pytest.raises(ValueError):
        not_o_prefix(3, 6)       # odd k
    with pytest.raises(ValueError):
        not_o_prefix(8, 6)       # k > n
    with pytest.raises(ValueError):
        eqs(6, 12)               # k not a multiple of 4
    with pytest.raises(ValueError):
        eqs(8, 6)                # k > n
    with pytest.raises(ValueError):
        not_pal(0)


def test_make_function_dispatch():
    assert make_function("PartialMOD", k=1, n=6).name == "PartialMOD"
    assert make_function("noteqs", k=4, n=8).name == "NotEQS"
    assert make_function("NotPAL", n=5).name == "NotPAL"
    with pytest.raises(ValueError):
        make_function("NotO", k=3, n=6)     # spurious k
    with pytest.raises(ValueError):
        make_function("MOD", n=6)           # missing k
    with pytest.raises(ValueError):
        make_function("frobnicate", n=4)


def test_total_flag():
    assert mod_count(2, 4).total
    assert not partial_mod(1, 6).total


# ---------------------------------------------------------------------------
# truth-table text format
# ---------------------------------------------------------------------------

def test_truth_table_round_trip():
    f = partial_mod(1, 4)
    text = format_truth_table(f)
    assert "0001 *" in text.splitlines()
    g = read_truth_table(io.StringIO(text))
    assert np.array_equal(g.truth_table(), f.truth_table())
    assert g("1111") == 1 and g("0001") is None


def test_read_truth_table_rejects_malformed_documents():
    with pytest.raises(ValueError):
        read_truth_table(io.StringIO("01 x\n"))
    with pytest.raises(ValueError):
        read_truth_table(io.StringIO("00 1\n01 0\n"))      # missing rows
    with pytest.raises(ValueError):
        read_truth_table(io.StringIO("0 1\n0 1\n"))        # duplicate input
    with pytest.raises(ValueError):
        read_truth_table(io.StringIO(""))


def test_from_table_checks_entries():
    with pytest.raises(ValueError):
        from_table(np.array([0, 1, 3, 0], dtype=np.int8))
    with pytest.raises(ValueError):
        from_table(np.array([0, 1, 1], dtype=np.int8))


@pytest.mark.parametrize("values", [[0, 257], [0.0, 1.7], [0, -254]], ids=str)
def test_from_table_checks_entries_before_the_int8_cast(values):
    # cast first, these would read as [0, 1], [0, 1] and [0, STAR]
    with pytest.raises(ValueError, match="0, 1 or STAR"):
        from_table(np.array(values))


def test_from_table_refuses_complex_tables_before_the_int8_cast():
    # the cast of a complex array warns even on exact codes, and under
    # warnings-as-errors that warning would escape as another exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0, 1 or STAR"):
            from_table(np.array([1 + 0j, 0]))


def test_from_table_accepts_exact_codes_of_any_dtype():
    table = from_table(np.array([0.0, 1.0, 2.0, 1.0])).truth_table()
    assert table.dtype == np.int8
    assert table.tolist() == [0, 1, STAR, 1]


def test_from_table_rejects_a_table_without_variables():
    with pytest.raises(ValueError):
        from_table(np.array([1], dtype=np.int8))
