import importlib.util
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from obddlab import (
    AcceptanceMode,
    CapExceededError,
    VariableOrder,
    computes,
    natural_order,
    program_width,
    validate_program,
)
from obddlab import oracles
from obddlab.core import cube_transpose
from obddlab.constructions import (
    build_det_eqs,
    build_det_partialmod,
)
from obddlab.functions import (
    eqs,
    from_table,
    mod_count,
    not_o,
    not_o_prefix,
    not_pal,
    not_power,
    not_square,
    partial_mod,
)
from obddlab.oracles import (
    distinguishability_lower_bound,
    min_width_over_orders,
    minimal_obdd,
    partial_min_width_exact,
    prefix_classes,
    stable_exhaustive_search,
    subfunction_widths,
)
from obddlab.serialize import encode_program


def random_total_table(rng, n):
    return from_table(rng.integers(0, 2, size=1 << n).astype(np.int8))


# ---------------------------------------------------------------------------
# subfunction counting (total functions)
# ---------------------------------------------------------------------------

def test_not_o_subfunction_widths():
    report = subfunction_widths(not_o(8))
    assert report.max_width == 5
    assert report.per_level[4] == 5
    assert report.kind == "exact"


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_not_o_needs_half_n_plus_one(n):
    assert subfunction_widths(not_o(n)).max_width == n // 2 + 1


def test_mod_subfunction_widths():
    assert subfunction_widths(mod_count(3, 6)).max_width == 3


def test_eqs_subfunction_widths():
    assert subfunction_widths(eqs(4, 8)).max_width == 4


def test_subfunction_widths_rejects_partial_functions_and_big_n():
    with pytest.raises(ValueError):
        subfunction_widths(partial_mod(1, 6))
    with pytest.raises(CapExceededError):
        subfunction_widths(not_o(24))


# ---------------------------------------------------------------------------
# distinguishability lower bound
# ---------------------------------------------------------------------------

def test_partial_mod_distinguishability_profile():
    # only residue pairs at distance 2**k mod 2**(k+1) are comparable and
    # nonequivalent, so each level contributes at most 2 (this is why the
    # full lower bound needs the multi-step pigeonhole argument)
    report = distinguishability_lower_bound(partial_mod(1, 6))
    assert report.per_level == (1, 1, 2, 2, 2, 2, 2)
    assert report.max_width == 2
    assert report.kind == "lower_bound"


def test_total_function_distinguishability_equals_subfunction_count():
    # all prefixes comparable: the clique is every class
    f = mod_count(3, 6)
    assert distinguishability_lower_bound(f).per_level == subfunction_widths(f).per_level


def test_not_o_distinguishability_mid_level():
    assert distinguishability_lower_bound(not_o(8)).per_level[4] == 5


# ---------------------------------------------------------------------------
# exact partial-function oracle
# ---------------------------------------------------------------------------

def test_partial_mod_exact_widths():
    assert partial_min_width_exact(partial_mod(1, 6)).max_width == 4
    assert partial_min_width_exact(partial_mod(0, 2)).max_width == 2
    assert partial_min_width_exact(partial_mod(0, 4)).max_width == 2


def test_exact_oracle_never_exceeds_construction_width():
    for k, n in ((0, 4), (1, 6), (1, 8)):
        oracle = partial_min_width_exact(partial_mod(k, n))
        built = program_width(build_det_partialmod(k, n))
        assert oracle.max_width <= built.max_width


def test_lower_bound_never_exceeds_exact_value():
    for k, n in ((0, 4), (1, 6), (1, 8)):
        f = partial_mod(k, n)
        assert (distinguishability_lower_bound(f).max_width
                <= partial_min_width_exact(f).max_width)


def test_exact_oracle_matches_subfunctions_on_random_total_tables():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = random_total_table(rng, n)
        assert (partial_min_width_exact(f, class_cap=64).per_level
                == subfunction_widths(f).per_level)


def test_exact_oracle_rejects_big_n():
    with pytest.raises(CapExceededError):
        partial_min_width_exact(partial_mod(1, 14))


def test_minimal_obdd_achieves_the_oracle_width_and_computes():
    for f in (partial_mod(1, 6), partial_mod(0, 4), mod_count(3, 6), eqs(4, 8)):
        report = partial_min_width_exact(f, class_cap=64)
        program = minimal_obdd(f, class_cap=64)
        assert validate_program(program).ok
        assert program_width(program).max_width == report.max_width
        assert computes(program, f, AcceptanceMode.deterministic()).ok


def test_minimal_obdd_respects_the_requested_order():
    order = VariableOrder(4, (3, 1, 0, 2))
    program = minimal_obdd(mod_count(2, 4), order)
    assert program.order == order
    assert computes(program, mod_count(2, 4), AcceptanceMode.deterministic()).ok


# ---------------------------------------------------------------------------
# prefix classes
# ---------------------------------------------------------------------------

def test_prefix_classes_of_partial_mod():
    classes = prefix_classes(partial_mod(1, 6), None, 2)
    assert len(classes) == 3  # residues 0, 1, 2 are realized by length-2 prefixes
    assert {c.representative for c in classes} == {"00", "01", "11"} or \
           {c.representative for c in classes} <= {format(i, "02b") for i in range(4)}
    star_masks = {c.star_mask for c in classes}
    assert len(star_masks) == 2  # parity of the prefix fixes which suffixes are defined


def test_prefix_classes_level_bounds():
    with pytest.raises(ValueError):
        prefix_classes(partial_mod(1, 6), None, 9)


# ---------------------------------------------------------------------------
# exhaustive stable search
# ---------------------------------------------------------------------------

def test_stable_search_finds_the_counter_at_width_4():
    f = partial_mod(1, 6)
    assert stable_exhaustive_search(f, 3, "deterministic") is None
    found = stable_exhaustive_search(f, 4, "deterministic")
    assert found is not None
    assert found.stable and found.order.is_id
    assert validate_program(found).ok
    assert computes(found, f, AcceptanceMode.deterministic()).ok


def test_stable_search_nondeterministic_small_widths():
    f = partial_mod(1, 6)
    assert stable_exhaustive_search(f, 1, "nondeterministic") is None
    assert stable_exhaustive_search(f, 2, "nondeterministic") is None


def test_stable_search_returns_working_nondeterministic_program():
    f = partial_mod(0, 4)  # parity: width 2 suffices even nondeterministically
    found = stable_exhaustive_search(f, 2, "nondeterministic")
    assert found is not None
    assert computes(found, f, AcceptanceMode.nondeterministic()).ok


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize("kind", ["deterministic", "nondeterministic"])
def test_stable_search_rejects_widths_below_1(width, kind):
    with pytest.raises(ValueError, match="width must be >= 1"):
        stable_exhaustive_search(partial_mod(1, 4), width, kind)


def test_stable_search_caps():
    f = partial_mod(1, 6)
    with pytest.raises(CapExceededError):
        stable_exhaustive_search(f, 5, "deterministic")
    with pytest.raises(CapExceededError):
        stable_exhaustive_search(f, 4, "nondeterministic")
    with pytest.raises(ValueError):
        stable_exhaustive_search(f, 2, "quantum")


def test_subset_bound_cross_check():
    # an exact width above 2**w rules out nondeterministic width w
    assert partial_min_width_exact(partial_mod(1, 6)).max_width > 2
    assert stable_exhaustive_search(partial_mod(1, 6), 1, "nondeterministic") is None
    assert subfunction_widths(not_o(8)).max_width > 4
    assert stable_exhaustive_search(not_o(8), 2, "nondeterministic") is None


# ---------------------------------------------------------------------------
# order enumeration
# ---------------------------------------------------------------------------

def test_not_pal_minimum_over_orders_is_3_but_natural_is_worse():
    report = min_width_over_orders(not_pal(4))
    assert report.max_width == 3
    assert subfunction_widths(not_pal(4)).max_width == 4
    # the witnessing order pairs mirrored positions
    assert report.order in ((0, 3, 1, 2), (3, 0, 2, 1), (0, 3, 2, 1), (3, 0, 1, 2))
    assert subfunction_widths(not_pal(4), VariableOrder(4, report.order)).max_width == 3


def test_symmetric_functions_are_order_insensitive():
    for f in (mod_count(2, 4), not_o(6)):
        values = {
            subfunction_widths(f, VariableOrder(f.n, perm)).max_width
            for perm in itertools.permutations(range(f.n))
        }
        assert len(values) == 1


def test_min_width_over_orders_on_partial_function():
    assert min_width_over_orders(partial_mod(1, 6)).max_width == 4


def test_min_width_over_orders_cap():
    n_cap = inspect.signature(min_width_over_orders).parameters["n_cap"].default
    with pytest.raises(CapExceededError):
        min_width_over_orders(not_o(n_cap + 1))


def test_order_search_on_asymmetric_partial_table_is_capped_at_8():
    table = np.random.default_rng(9).integers(0, 3, size=1 << 9).astype(np.int8)
    with pytest.raises(CapExceededError, match="n <= 8"):
        min_width_over_orders(from_table(table))


SYMMETRIC = "invariant under every order"


def test_symmetry_shortcut_reads_the_table_not_the_tag():
    for f in (not_o(8), partial_mod(1, 6)):
        tagged = min_width_over_orders(f)
        copy = min_width_over_orders(from_table(f.truth_table()))
        assert SYMMETRIC in tagged.method and SYMMETRIC in copy.method
        assert (copy.per_level, copy.order) == (tagged.per_level, tagged.order)


def _invariant(n, generator, rng):
    """A random table invariant under the variable permutation
    ``generator``: the OR of a random table over its orbit."""
    table = rng.integers(0, 2, size=1 << n).astype(np.int8)
    for _ in range(n):  # OR over the powers 0..n of a generator of order <= n
        table = table | cube_transpose(table, generator)
    assert np.array_equal(cube_transpose(table, generator), table)
    return table


@pytest.mark.parametrize("generator", [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
                         ids=["transposition", "cycle"])
def test_one_generator_of_the_symmetric_group_is_not_enough(generator):
    """Tables invariant under only (0 1), or only (0 1 2 3 4), take the
    subset search and agree with the n! reference."""
    rng = np.random.default_rng(5)
    tried = 0
    while tried < 5:
        table = _invariant(5, generator, rng)
        if all(np.array_equal(cube_transpose(table, perm), table)
               for perm in itertools.permutations(range(5))):
            continue
        tried += 1
        f = from_table(table)
        report = min_width_over_orders(f)
        assert SYMMETRIC not in report.method
        assert report.max_width == min(
            subfunction_widths(f, VariableOrder(5, perm)).max_width
            for perm in itertools.permutations(range(5)))


def test_subset_search_matches_the_bench_reference_at_n_8_to_10():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    rng = np.random.default_rng(11)
    cases = [random_total_table(rng, n) for n in (8, 9, 10)] + [not_pal(9), eqs(4, 10)]
    for f in cases:
        report = min_width_over_orders(f)
        assert "subsets" in report.method
        assert report.max_width == reference.min_width_over_orders(f.truth_table(), f.n)
        at = subfunction_widths(f, VariableOrder(f.n, report.order))
        assert at.per_level == report.per_level


# ---------------------------------------------------------------------------
# class structures from count profiles
# ---------------------------------------------------------------------------

def symmetric_members(max_n):
    """Every member of the families with a count profile at n <= max_n;
    PartialMOD up to the first k whose 0-count 2**k is past n."""
    for n in range(1, max_n + 1):
        yield from (not_o(n), not_square(n), not_power(n))
        yield from (mod_count(k, n) for k in range(2, n // 2 + 1))
        yield from (partial_mod(k, n) for k in range(n.bit_length() + 1))
        yield from (not_o_prefix(k, n) for k in range(2, n + 1, 2))


def _structure(classes):
    return (classes.counts, [np.stack(succ).tolist() for succ in classes.succ],
            classes.leaf.tolist(), classes.star_group_maxima(),
            [classes.clash(j) for j in range(classes.n + 1)])


def _oracle_reports(f, order):
    """The class oracles' reports on ``f`` under ``order``, less
    ``method``, and the encoded minimal program where the partition
    search runs; a cap hit is part of the answer."""
    def fields(report):
        return report.per_level, report.max_width, report.kind, report.order

    reports = [fields(distinguishability_lower_bound(f, order))]
    if f.total:
        reports.append(fields(subfunction_widths(f, order)))
    if f.n <= 12:
        try:
            reports.append(fields(partial_min_width_exact(f, order)))
            reports.append(encode_program(minimal_obdd(f, order)))
        except CapExceededError as error:
            reports.append(str(error))
    return reports


def test_profile_builder_matches_the_table_builder():
    """Every symmetric member at n <= 16, under the natural order and two
    random ones (for NotOk these mostly read a variable past its first k
    before all of the first k): the same class structure, and the same
    oracle answers and minimal programs as its ``from_table`` copy."""
    rng = np.random.default_rng(3)
    members = list(symmetric_members(16))
    assert len(members) == 231
    assert {f.symmetry for f in members} == {"ones", "prefix_ones"}
    for f in members:
        copy = from_table(f.truth_table())
        assert f.total == copy.total
        orders = [None] + [VariableOrder(f.n, tuple(rng.permutation(f.n).tolist()))
                           for _ in range(2)]
        for order in orders:
            profile, at = oracles._classes(f, order)
            table, at_copy = oracles._classes(copy, order)
            assert "count profile" in profile.builder and "truth table" in table.builder
            assert at == at_copy
            assert _structure(profile) == _structure(table), (f, order)
            if f.n <= 12 or order is None:
                assert _oracle_reports(f, order) == _oracle_reports(copy, order), (f, order)


def test_class_oracle_methods_name_the_builder():
    f = partial_mod(1, 6)
    copy = from_table(f.truth_table())
    for oracle in (distinguishability_lower_bound, partial_min_width_exact):
        assert oracle(f).method.endswith("built from the count profile")
        assert oracle(copy).method.endswith("built from the truth table")
    assert subfunction_widths(not_o(6)).method.endswith("built from the count profile")


@pytest.mark.parametrize("oracle", [subfunction_widths, distinguishability_lower_bound,
                                    partial_min_width_exact, minimal_obdd])
@pytest.mark.parametrize("source", ["profile", "table"])
def test_class_oracles_refuse_an_order_over_another_n(oracle, source):
    f = mod_count(2, 6)
    if source == "table":
        f = from_table(f.truth_table())
    for n in (5, 7):
        with pytest.raises(ValueError, match=f"order is over n = {n} but function has n = 6"):
            oracle(f, natural_order(n))


# ---------------------------------------------------------------------------
# oracle versus a construction it knows nothing about
# ---------------------------------------------------------------------------

def test_eqs_oracle_vs_construction():
    f = eqs(4, 8)
    oracle = subfunction_widths(f)
    built = program_width(build_det_eqs(4, 8))
    assert 2 <= oracle.max_width <= built.max_width
