"""Independent width oracles.

These compute, by brute force over prefix classes, how wide a program
*must* be, so that the widths of the explicit constructions can be checked
against something that knows nothing about how the constructions work.

Under a fixed order, the *row* of a length-``j`` prefix maps suffixes to
{0, 1, undefined}; prefixes with equal rows form a *class*.  One routine,
:class:`_Classes`, finds the classes of every level bottom-up, as OBDD
reduction does (Bryant 1986; Sieling & Wegener 1993): the level-``n``
classes are the distinct leaf codes, a prefix ``p`` is classed by the pair
(class of ``p0``, class of ``p1``), and the distinct pairs are the
successor maps.  It runs over the ``2**n`` prefixes of the ordered truth
table, or, for the families with a count profile, over the at most
``n + 1`` counts of ones a prefix can have, with no table: the same
classes, numbered alike, in ``O(n**2)``.  The first four oracles read its
output, and their reports' ``method`` says which of the two ran; the
distinguishability bound runs the same loop once more, over the classes,
to rank their sets of undefined suffixes.

* :func:`subfunction_widths` -- exact minimal width per level for a *total*
  function: the class count (the quotient argument).
* :func:`distinguishability_lower_bound` -- for partial functions: at each
  level, the largest set of classes that are pairwise *comparable* (same
  set of defined suffixes) and *nonequivalent* (some defined suffix
  separates them); such classes must occupy distinct nodes.
* :func:`partial_min_width_exact` -- minimal width of a (possibly partial)
  function, by searching partition sequences of classes (see below).
* :func:`prefix_classes` -- the classes of one level, with a
  representative prefix and the row of each.
* :func:`stable_exhaustive_search` -- enumerate every stable ID program of
  a given width and kind, and return one computing the function, or none
  (see below).
* :func:`min_width_over_orders` -- minimum exact width over all n!
  variable orders: one oracle call when the table is invariant under every
  order, a bottleneck path over the ``2**n`` variable subsets for a total
  table (``n <= 14``), and the per-order partition search for any other
  partial table (``n <= 8``).

The size caps are module constants (``_SUBFUNCTION_N_CAP`` and its
neighbours), since a cap moves only with bench evidence; the one keyword
left is the partition search's ``class_cap``.

Partition-sequence search
-------------------------
A width-``w`` program is taken to induce, per level, a partition of the
classes into at most ``w`` blocks such that

(a) every block is *consistent*: no suffix is mapped to 0 by one row of
    the block and 1 by another (undefined entries are free), and
(b) the 0-successors of a block all land in one block of the next level,
    and likewise the 1-successors.

Any such partition sequence yields a correct program with ``max_j |P_j|``
nodes per level.  The search runs feasibility tests for increasing ``w``:
from a partition, the next level's *forced* partition (the finest one
satisfying (b)) is computed by union-find; finer partitions dominate
coarser ones, so only when the forced partition exceeds ``w`` blocks does
the search branch over ways of merging it down to exactly ``w`` consistent
blocks.  At ``w = max_j counts[j]`` the all-singleton sequence is found
with no search (:func:`_singletons`); a total function starts there, since
its lower bound is that width.  This is exact for total functions.  For
partial functions it can *overestimate*: "prefixes with identical rows may
share a node" does not hold there, since the narrowest program may have to
split a class over several nodes (``partial_mod(1, 5)`` gets 4 where a
width-3 program exists; see ``bench/README.md``).  The reports still say
``kind="exact"``.

Stable search
-------------
A stable ID program applies one transition pair at every level, so it is
fixed by the successor set of each (symbol, node) pair.  Program index
``p`` encodes them: the deterministic successor of node ``s`` on ``sym`` is
the base-``w`` digit ``sym*w + s`` of ``p``; the nondeterministic successor
set is the ``w`` bits of ``p`` from bit ``w*(sym*w + s)`` on.  The search
is bit-sliced (Biham, FSE 1997): bit ``i`` of ``uint64`` word ``k`` is
program ``64*k + i``, and per (source, symbol, target) one word per word
of programs says which of its 64 programs have that edge.  The reachable
node sets of 64 programs after one prefix are ``w`` words, the bit-planes
``X[u]``; a step on ``sym`` is ``Y[u] = OR_s X[s] & E[s, sym, u]``, the
bit-parallel automaton simulation of Baeza-Yates & Gonnet (CACM 35(10),
1992) run across programs.  Some accepting set makes a program compute
``f`` iff every 1-input's final set holds a node that no 0-input's final
set holds: with ``forbidden[u]`` the OR of the 0-inputs' planes, a program
is feasible iff its bit survives the AND over the 1-inputs of
``OR_u F[u] & ~forbidden[u]``.

The search runs in two phases, the refutation step of counterexample-
guided synthesis (Solar-Lezama et al., ASPLOS 2006).  Phase 1 steps every
word through a small sample of defined inputs only, all at once: the
sample's prefix tree, one level per bit, each level's prefixes grouped by
the symbol read.  It drops the words in which every program has a sampled
1-input whose set lies inside the union of the sampled 0-inputs' sets.
That is sound: the sampled union lies inside the full ``forbidden``, so
such a program is infeasible on the whole table.  Each sample of
``_REFUTE_SAMPLES`` steps only the words the ones before it left.
Phase 1 runs only where the full check of every program would hold more
than ``_REFUTE_PLANES`` words of planes, and not on the first, small chunk
of programs, where the full check alone finds an early hit fastest.
Phase 2, the full check above, doubles the prefixes ``n`` times over the
words left, which gives every program's final planes on every input in
truth-table order.  It takes those words in index order, in batches that
start small and double, and the first batch with a feasible program
returns its lowest one, accepting at the nodes some 1-input reaches and no
0-input does.  Dropping only infeasible words keeps every feasible
program, so the program returned is the first feasible one of the whole
enumeration, as without phase 1.  The two phases step inputs in two ways
because each is the cheaper one where it runs: doubling steps both symbols
of every row with one broadcast per source, while the prefix tree gathers
its rows per symbol, which costs more once every input is stepped.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CapExceededError,
    ObddProgram,
    VariableOrder,
    WidthReport,
    cube_transpose,
    level_map,
    level_relation,
    natural_order,
    _integers,
    _stable_program,
)
from .functions import STAR, FunctionSpec, _profile_codes

__all__ = [
    "PrefixClass",
    "WidthReport",
    "prefix_classes",
    "subfunction_widths",
    "distinguishability_lower_bound",
    "partial_min_width_exact",
    "minimal_obdd",
    "stable_exhaustive_search",
    "min_width_over_orders",
]

# feasibility caps (module docstring)
_SUBFUNCTION_N_CAP = 22
_DISTINGUISH_N_CAP = 20
_PARTIAL_N_CAP = 12
_STABLE_N_CAP = 16
_STABLE_WIDTH_CAP = {"deterministic": 4, "nondeterministic": 3}
_ORDER_N_CAP = 14
#: a partial table that is not symmetric gets one partition search per
#: order; at n = 8 those 40,320 searches already take tens of seconds
_PERMUTATION_CAP = 8


@dataclass(frozen=True)
class PrefixClass:
    """A behavior class of length-``level`` prefixes under a fixed order."""

    level: int
    representative: str
    row: np.ndarray  # suffix -> {0, 1, STAR}

    @property
    def star_mask(self) -> bytes:
        return (self.row == STAR).tobytes()


# ---------------------------------------------------------------------------
# tables and prefix classes
# ---------------------------------------------------------------------------

def _checked_order(f: FunctionSpec, order: VariableOrder | None) -> VariableOrder:
    order = order or natural_order(f.n)
    if order.n != f.n:
        raise ValueError(f"order is over n = {order.n} but function has n = {f.n}")
    return order


def _ordered_table(f: FunctionSpec, order: VariableOrder | None) -> tuple[np.ndarray, VariableOrder]:
    order = _checked_order(f, order)
    return cube_transpose(f.truth_table(), order.perm), order


#: below this many keys :func:`_pair_ranks` ranks by ``searchsorted``,
#: whose fixed cost is the least, and the order search makes thousands of
#: calls that small; past it ``searchsorted`` grows fastest.  CPU us per
#: call on random int32 keys (2 shared x86-64 cores, numpy 2.4): 256 keys
#: 9-11 by searchsorted, 11 by lookup, 17 by argsort; 1,024 keys 19-85,
#: 15-17 and 26-39.  Over the order search at n = 14, 512 beat 256 by
#: 8-12% on NotPAL and EQS and lost 5% on a random table.
_SEARCHSORTED_KEYS = 1 << 9


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """Flags of the first entry of each run of equal sorted keys."""
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _pair_ranks(left: np.ndarray, right: np.ndarray, k: int):
    """Rank the pairs ``(left[i], right[i])`` of ids below ``k`` in
    lexicographic order.  Returns the distinct pairs as sorted keys
    ``left * k + right``, and the rank of every input pair, flattened in C
    order if the inputs have more than one axis.  The keys are int32 while
    ``k * k < 2**31`` and int64 past it; the ranks are always int32.

    One of three regimes ranks the keys, each linear past its sort:

    * many classes (``_SEARCHSORTED_KEYS <= keys < k * k``): one
      ``argsort``, and the running count of distinct keys along it
      scattered back through the order;
    * fewer than ``_SEARCHSORTED_KEYS`` keys: sort, and ``searchsorted``
      every key among the distinct ones;
    * few classes (``k * k <= keys``): sort, and fill a table of all
      ``k * k`` keys with the ranks of the distinct ones, then ``take``
      each key's rank from it.
    """
    dtype = np.int32 if k * k < 1 << 31 else np.int64
    key = left.astype(dtype)
    key *= k
    key += right
    key = key.reshape(-1)
    # np.unique by hand: its wrapper outweighs the sort at the sizes the
    # order search uses, and its hashing path is slower on large levels
    if _SEARCHSORTED_KEYS <= key.size < k * k:
        order = key.argsort()
        ordered = key.take(order)
        first = _distinct(ordered)
        ranks = np.cumsum(first, dtype=np.int32)
        ranks -= 1
        ids = np.empty(key.size, dtype=np.int32)
        ids[order] = ranks
        return ordered[first], ids
    pairs = key.copy()
    pairs.sort()
    pairs = pairs[_distinct(pairs)]
    if key.size < _SEARCHSORTED_KEYS:
        return pairs, pairs.searchsorted(key).astype(np.int32)
    lookup = np.empty(k * k, dtype=np.int32)
    lookup[pairs] = np.arange(pairs.size, dtype=np.int32)
    # take, not lookup[key]: indexing converts the keys to intp first
    return pairs, lookup.take(key)


def _leaf_ids(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes of a table, and the rank of every entry among
    them, as int8.  The codes are 0, 1 and STAR = 2, so they run from the
    least to the greatest code present with at most a missing 1 between:
    the ranks are ``table - least``, or ``table >> 1`` for codes {0, STAR}.
    A few linear passes and no index array of the table's size."""
    lo, hi = int(table.min()), int(table.max())
    gap = lo == 0 and hi == STAR and not (table == 1).any()
    leaf = np.array([0, STAR] if gap else range(lo, hi + 1), dtype=np.int8)
    return leaf, table >> 1 if gap else table - lo


class _Classes:
    """The classes of every level ``0..n`` under a fixed order.

    * ``ids[j][r]`` -- class of the level-``j`` representative ``r``: int8
      at level ``n`` (:func:`_leaf_ids`), int32 above it (:func:`_pair_ranks`);
    * ``counts[j]`` -- number of classes at level ``j``;
    * ``succ[j] = (s0, s1)`` -- class of each class's 0- and 1-extension;
    * ``leaf[c]`` -- the code {0, 1, STAR} of level-``n`` class ``c``;
    * ``builder`` -- which builder ran.

    The constructor is the one ranking loop.  It takes the leaf codes of
    the level-``n`` representatives and a rule ``split(j, below)`` that
    gives, from the ids ``below`` of level ``j + 1``, the ids of each
    level-``j`` representative's 0- and 1-extension, and classes the
    representative by that pair.  Its builders pass only their rule:
    :meth:`from_table` takes an ordered truth table, whose representatives
    are the prefixes (bits in test order, read as a number), so ``p``
    splits into ``2p`` and ``2p + 1``; :meth:`from_profile` takes a count
    profile and needs no table; :meth:`star_group_maxima` ranks the
    undefined-leaf pattern over the classes themselves.

    Class ids follow the sorted order of the rows: all rows of one level
    have the same length, so once a level's ids follow row order, so does
    the order of the pairs ranked one level up.
    """

    def __init__(self, codes: np.ndarray, n: int, split, builder: str):
        self.n, self.builder = n, builder
        self.leaf, leaf_ids = _leaf_ids(codes)
        self.ids = [None] * n + [leaf_ids]
        self._pairs = [None] * n
        k = self.leaf.size
        for j in range(n - 1, -1, -1):
            self._pairs[j], self.ids[j] = _pair_ranks(*split(j, self.ids[j + 1]), k)
            k = self._pairs[j].size
        self.counts = [pairs.size for pairs in self._pairs] + [self.leaf.size]
        self._clash: list[tuple[np.ndarray, list[int]] | None] = [None] * (n + 1)

    @classmethod
    def from_table(cls, table: np.ndarray) -> _Classes:
        """The classes of an ordered truth table."""
        return cls(table, table.size.bit_length() - 1,
                   lambda j, below: (below[0::2], below[1::2]), "built from the truth table")

    @classmethod
    def from_profile(cls, codes: np.ndarray, counted: list[bool]) -> _Classes:
        """The classes of a function whose value is ``codes[c]``, ``c`` the
        number of ones among the *counted* variables; ``counted[j]`` says
        whether the ``j``-th variable read is one.  The representatives of
        level ``j`` are the counts ``0..m_j``, ``m_j`` the number of counted
        variables among the first ``j`` read, and count ``c`` splits into
        ``(c, c + 1)`` past a counted variable, into ``(c, c)`` past another.

        This gives the structure of ``_Classes`` on the ordered table, with
        the same class numbers.  The row of a length-``j`` prefix depends
        only on its count ``c``, since a suffix of count ``d`` completes it
        to ``codes[c + d]``; so, from level ``n`` up, the table builder
        gives every prefix of count ``c`` the class this builder gives
        ``c``.  At level ``n`` both rank the same set of codes, since every
        count ``0..m_n`` is that of some input.  At level ``j`` the table
        builder ranks the pairs of the prefixes' extensions and this one
        the pairs of the counts' extensions; every count ``0..m_j`` is that
        of some prefix, so both rank the same set of distinct pair keys.
        Hence ``counts``, ``succ``, ``leaf``, the clash rows and the
        star-group maxima agree; only ``ids`` is indexed differently.
        """
        return cls(codes, len(counted),
                   lambda j, below: (below[:-1], below[1:]) if counted[j] else (below, below),
                   "built from the count profile")

    @cached_property
    def succ(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # split only on demand: the order search reads nothing but counts
        return [np.divmod(pairs, k) for pairs, k in zip(self._pairs, self.counts[1:])]

    def star_group_maxima(self) -> list[int]:
        """Per level, the most classes that share one set of undefined
        suffixes.  Those sets are ranked like the classes, by the same
        loop over the classes instead of prefixes: from the undefined leaf
        code up, a class splits into its two successors.  With no
        undefined leaf every row's set is empty, so each level is one
        group and the maxima are the counts."""
        if STAR not in self.leaf:
            return list(self.counts)
        succ = self.succ
        groups = _Classes((self.leaf == STAR).astype(np.int8), self.n,
                          lambda j, below: (below[succ[j][0]], below[succ[j][1]]),
                          "star groups of the classes")
        return [int(np.bincount(ids).max()) for ids in groups.ids]

    def clash(self, j: int) -> list[int]:
        """Bit ``b`` of entry ``a``: the rows of classes ``a`` and ``b`` at
        level ``j`` map some suffix one to 0 and the other to 1.  Built from
        level ``n`` up on first use, as a matrix and as these bit rows."""
        if self._clash[j] is None:
            if j == self.n:  # a leaf 0 clashes with a leaf 1
                matrix = np.add.outer(self.leaf, self.leaf) == 1
            else:  # two rows clash iff their 0-halves or their 1-halves do
                self.clash(j + 1)
                below = self._clash[j + 1][0]
                s0, s1 = self.succ[j]
                matrix = below[np.ix_(s0, s0)] | below[np.ix_(s1, s1)]
            packed = np.packbits(matrix, axis=1, bitorder="little")
            self._clash[j] = matrix, [int.from_bytes(row.tobytes(), "little") for row in packed]
        return self._clash[j][1]

    def consistent(self, j: int, block: tuple[int, ...]) -> bool:
        # pairwise suffices: a 0/1 clash always involves exactly two rows
        if len(block) < 2:
            return True
        clash = self.clash(j)
        members = sum(1 << c for c in block)
        return not any(clash[c] & members for c in block)


def _classes(f: FunctionSpec, order: VariableOrder | None) -> tuple[_Classes, VariableOrder]:
    """The classes of ``f`` under ``order``: from the count profile when
    ``f`` has one, with no truth table, else from the ordered table.  A
    profile over the counts ``0..m`` counts variables ``0..m-1`` wherever
    the order reads them."""
    order = _checked_order(f, order)
    profile = f.count_profile()
    if profile is None:
        return _Classes.from_table(cube_transpose(f.truth_table(), order.perm)), order
    codes = _profile_codes(profile.values())
    return _Classes.from_profile(codes, [v < codes.size - 1 for v in order.perm]), order


def prefix_classes(f: FunctionSpec, order: VariableOrder | None, level: int) -> list[PrefixClass]:
    """The distinct prefix behavior classes at one level; each
    representative is the first prefix of its class."""
    table, order = _ordered_table(f, order)
    n = f.n
    if not 0 <= level <= n:
        raise ValueError(f"level must be in 0..{n}")
    rows = table.reshape(1 << level, -1)
    _, first = np.unique(_Classes.from_table(table).ids[level], return_index=True)
    return [
        PrefixClass(level, format(int(i), f"0{level}b") if level else "", rows[i])
        for i in first
    ]


# ---------------------------------------------------------------------------
# exact oracle for total functions
# ---------------------------------------------------------------------------

def subfunction_widths(f: FunctionSpec, order: VariableOrder | None = None) -> WidthReport:
    """Exact minimal OBDD width of a total function under one order.

    Level ``j`` needs exactly as many nodes as there are distinct
    subfunctions induced by length-``j`` prefixes, and that many suffice.
    """
    if f.n > _SUBFUNCTION_N_CAP:
        raise CapExceededError(f"subfunction oracle needs n <= {_SUBFUNCTION_N_CAP}, got {f.n}")
    classes, order = _classes(f, order)
    if STAR in classes.leaf:
        raise ValueError(f"{f.name} is partial; use partial_min_width_exact")
    return WidthReport(
        per_level=tuple(classes.counts),
        kind="exact",
        method=f"distinct subfunctions per level, classes {classes.builder}",
        order=order.perm,
    )


# ---------------------------------------------------------------------------
# lower bound for partial functions
# ---------------------------------------------------------------------------

def distinguishability_lower_bound(f: FunctionSpec,
                                   order: VariableOrder | None = None) -> WidthReport:
    """Largest pairwise comparable-and-nonequivalent class set per level.

    Comparability (equal sets of defined suffixes) is an equivalence on
    classes, so the comparability graph is a union of groups; distinct rows
    in one group always differ on a defined suffix, hence every group is a
    clique of nonequivalent classes and the exact maximum clique is simply
    the largest group.
    """
    if f.n > _DISTINGUISH_N_CAP:
        raise CapExceededError(
            f"distinguishability oracle needs n <= {_DISTINGUISH_N_CAP}, got {f.n}")
    classes, order = _classes(f, order)
    return WidthReport(
        per_level=tuple(classes.star_group_maxima()),
        kind="lower_bound",
        method=f"max set of pairwise comparable nonequivalent prefix classes, {classes.builder}",
        order=order.perm,
    )


# ---------------------------------------------------------------------------
# exact oracle for partial functions
# ---------------------------------------------------------------------------

def _forced_partition(levels: _Classes, j: int, blocks) -> tuple[tuple[int, ...], ...]:
    """Finest partition of level-(j+1) classes honoring the successor rule."""
    m_next = levels.counts[j + 1]
    parent = list(range(m_next))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    succ0, succ1 = levels.succ[j]
    for block in blocks:
        for succ in (succ0, succ1):
            anchor = int(succ[block[0]])
            for c in block[1:]:
                union(anchor, int(succ[c]))
    found: dict[int, list[int]] = {}
    for c in range(m_next):
        found.setdefault(find(c), []).append(c)
    return tuple(sorted(tuple(block) for block in found.values()))


def _merges_into(levels: _Classes, j: int, blocks, w: int):
    """All ways to merge ``blocks`` into exactly ``w`` consistent groups.

    Yields tuples of class-id tuples.  Conflicts between whole blocks are
    precomputed; groups are built with canonical numbering so no partition
    is produced twice.
    """
    m = len(blocks)
    clash = levels.clash(j)
    members = [sum(1 << c for c in block) for block in blocks]
    pair_conflict = [[any(clash[c] & other for c in block) for other in members]
                     for block in blocks]

    groups: list[list[int]] = []

    def rec(i: int):
        if m - i < w - len(groups):  # cannot still reach w groups
            return
        if i == m:
            if len(groups) == w:
                merged = [tuple(sorted(c for b in g for c in blocks[b])) for g in groups]
                yield tuple(sorted(merged, key=lambda block: block[0]))
            return
        for g in groups:
            if not any(pair_conflict[i][b] for b in g):
                g.append(i)
                yield from rec(i + 1)
                g.pop()
        if len(groups) < w:
            groups.append([i])
            yield from rec(i + 1)
            groups.pop()

    yield from rec(0)


def _search(levels: _Classes, w: int, class_cap: int):
    """Witness partition sequence with every level <= w blocks, or None."""
    n = levels.n
    dead: list[set] = [set() for _ in range(n + 1)]

    def rec(j: int, blocks):
        if j == n:
            return [blocks]
        if blocks in dead[j]:
            return None
        forced = _forced_partition(levels, j, blocks)
        if all(levels.consistent(j + 1, block) for block in forced):
            if len(forced) <= w:
                tail = rec(j + 1, forced)
                if tail is not None:
                    return [blocks] + tail
            else:
                if levels.counts[j + 1] > class_cap:
                    raise CapExceededError(
                        f"level {j + 1} has {levels.counts[j + 1]} prefix classes "
                        f"(> cap {class_cap}) and the search must branch"
                    )
                for merged in _merges_into(levels, j + 1, forced, w):
                    tail = rec(j + 1, merged)
                    if tail is not None:
                        return [blocks] + tail
        dead[j].add(blocks)
        return None

    start = ((0,),)  # single empty-prefix class
    return rec(0, start)


def _singletons(levels: _Classes):
    """What ``_search(levels, max(levels.counts), cap)`` returns, without
    the search: the sequence of all-singleton partitions.  From singletons
    ``rec`` forces no union, so the forced partition is the singletons of
    the next level, sorted; singleton blocks are consistent, and they
    number ``counts[j + 1] <= w``, so ``rec`` descends with them at every
    level, never branches (hence never meets the cap) and returns them
    from the single empty-prefix class down.  A total table has
    ``lower == upper`` (its star-group maxima are its counts), so its
    search reduces to this."""
    return [tuple((c,) for c in range(m)) for m in levels.counts]


def partial_min_width_exact(f: FunctionSpec, order: VariableOrder | None = None,
                            *, class_cap: int = 12) -> WidthReport:
    """Minimal OBDD width of a (possibly partial) function.

    Searches partition sequences of prefix behavior classes (module
    docstring).  For a total function the answer is exact and coincides
    with :func:`subfunction_widths`.  For a partial function it can be too
    high: the search assumes that prefixes with identical rows may share a
    node, which is unsound (module docstring, ``bench/README.md``); the
    report still says ``kind="exact"``.  ``class_cap`` bounds the class
    count at levels where the search has to branch over merges.
    """
    report, _ = _partial_min_width_witness(f, order, class_cap)
    return report


def _partial_min_width_witness(f, order, class_cap: int):
    if f.n > _PARTIAL_N_CAP:
        raise CapExceededError(f"partial oracle needs n <= {_PARTIAL_N_CAP}, got {f.n}")
    levels, order = _classes(f, order)
    lower = max(levels.star_group_maxima())
    upper = max(levels.counts)
    for w in range(lower, upper + 1):
        witness = _singletons(levels) if w == upper else _search(levels, w, class_cap)
        if witness is not None:
            return (
                WidthReport(
                    per_level=tuple(len(p) for p in witness),
                    kind="exact",
                    method=f"partition-sequence search over prefix classes, {levels.builder}",
                    order=order.perm,
                ),
                (levels, witness, order),
            )
    raise AssertionError("partition search failed to terminate (unreachable)")


def minimal_obdd(f: FunctionSpec, order: VariableOrder | None = None,
                 *, class_cap: int = 12) -> ObddProgram:
    """A deterministic program of the width :func:`partial_min_width_exact`
    reports, built from the witness partition sequence of its search."""
    _, (levels, witness, order) = _partial_min_width_witness(f, order, class_cap)
    block_of = [{c: b for b, block in enumerate(partition) for c in block}
                for partition in witness]
    maps = [
        level_map(*([block_of[j + 1][int(succ[block[0]])] for block in witness[j]]
                    for succ in levels.succ[j]))
        for j in range(levels.n)
    ]
    # a consistent block holding a leaf 1 holds no leaf 0
    accept = {b for b, block in enumerate(witness[-1]) if 1 in levels.leaf[list(block)]}
    return ObddProgram(
        kind="deterministic",
        order=order,
        widths=tuple(len(p) for p in witness),
        levels=tuple(maps),
        initial=0,
        accept=frozenset(accept),
    )


# ---------------------------------------------------------------------------
# exhaustive search over stable ID programs
# ---------------------------------------------------------------------------

#: the first chunk of the stable search, and the first batch of its full
#: check, hold about this many pairs of a program and an input; later
#: batches double, up to about this many words in one batch's array of
#: bit-planes, and a chunk holds up to this many words of planes of phase
#: 1's largest sample
_SEARCH_STATES = 1 << 18
#: phase 1 runs only where the full check of every program would hold more
#: than this many words of planes: on a smaller space a sample's fixed
#: cost, n levels of numpy calls, is not repaid by the words it refutes
_REFUTE_PLANES = _SEARCH_STATES
#: phase 1's samples: so many defined inputs of each value, spread evenly
#: over the table; each steps only the words the ones before it left
_REFUTE_SAMPLES = (2, 6)
#: with phase 1, each chunk is this many times the one before: phase 1
#: takes about an eighth of the full check's time per word (nondeterministic
#: width 3 at n = 6), so an early hit costs it about what doubling costs
#: the full check
_REFUTE_GROWTH = 8


def stable_exhaustive_search(f: FunctionSpec, width: int, kind: str) -> ObddProgram | None:
    """Search all stable ID programs of the given width for one computing f.

    Enumerates every transition pair (``w**(2w)`` deterministic maps or
    ``2**(2*w*w)`` relations) with initial node 0 -- exhaustive up to node
    relabeling -- 64 programs to a ``uint64`` word: bit ``i`` of word ``k``
    is program ``64*k + i`` (module docstring), in chunks taken in index
    order.  The first chunk is ``_SEARCH_STATES >> max(n, w)`` programs
    rounded up to whole words, and goes straight to the full check, so an
    early hit stops after a small chunk.  On spaces past
    ``_REFUTE_PLANES``, each later chunk is ``_REFUTE_GROWTH`` times the
    one before, up to ``_SEARCH_STATES`` words of planes of the largest
    sample of ``_REFUTE_SAMPLES``, and phase 1 drops its words in which
    the samples refute every program; elsewhere later chunks double.
    Phase 2, the full check, steps the words left through every input in
    batches that start at the first chunk's size and double, up to about
    ``_SEARCH_STATES`` words of final planes (2 MB at the default), and
    its last doubling step peaks near three times that.  So a search that
    phase 1 leaves no full batch peaks near 2 MB, and one with a full
    batch near 6 MB.  Returns the first program in index order that
    computes ``f``, accepting at the nodes some 1-input reaches and no
    0-input reaches, or None.
    """
    n = f.n
    if n > _STABLE_N_CAP:
        raise CapExceededError(f"stable search needs n <= {_STABLE_N_CAP}, got {n}")
    if kind not in _STABLE_WIDTH_CAP:
        raise ValueError(f"search supports classical kinds, not {kind!r}")
    w = _integers("width", (width,))[0]
    if w < 1:
        raise ValueError("width must be >= 1")
    if w > _STABLE_WIDTH_CAP[kind]:
        raise CapExceededError(f"{kind} search capped at width {_STABLE_WIDTH_CAP[kind]}")
    table = f.truth_table()
    yes, no = table == 1, table == 0
    count = w ** (2 * w) if kind == "deterministic" else 1 << (2 * w * w)
    words = -(-count // 64)
    size = -(-max(1, _SEARCH_STATES >> max(n, w)) // 64)
    batch = max(1, _SEARCH_STATES // (w << n))
    refute = words * (w << n) > _REFUTE_PLANES
    span = max(1, _SEARCH_STATES // (2 * w * max(1, *_REFUTE_SAMPLES))) if refute else batch
    samples = []
    chunk = min(size, batch)
    first = 0
    while first < words:
        last = min(first + chunk, words)
        edges = _edge_planes(kind, w, first, last)
        kept = np.arange(first, last)
        if refute and first:  # the first chunk is too small for phase 1 to pay
            samples = samples or [_sample_tree(yes, no, n, m) for m in _REFUTE_SAMPLES]
            for plan, value in samples:
                if kept.size:
                    alive = np.flatnonzero(_survivors(edges, plan, value))
                    edges, kept = edges.take(alive, axis=-1), kept[alive]
        chunk = min(chunk * (_REFUTE_GROWTH if refute else 2), span)
        at = 0
        while at < kept.size:
            part = edges[..., at:at + min(size, batch)]
            allowed, feasible = _feasible(_final_planes(part, n), yes, no)
            # a bit p past the last program decodes as program p % count,
            # which comes first and survives phase 1 as it does, so it is
            # never the lowest feasible bit
            hit = np.flatnonzero(feasible)
            if hit.size:
                k = int(hit[0])
                word = int(feasible[k])
                i = (word & -word).bit_length() - 1
                accept = np.bitwise_or.reduce(allowed[:, :, k], axis=0) >> i & 1
                return _enumerated_program(kind, n, part[..., k] >> np.uint64(i) & 1,
                                           np.flatnonzero(accept))
            at, size = at + part.shape[-1], 2 * size
        first = last
    return None


def _sample_tree(yes: np.ndarray, no: np.ndarray, n: int, m: int):
    """Up to ``m`` defined inputs of each value, spread evenly over the
    table, as the prefix tree phase 1 steps.  The rows of level ``j + 1``
    are the sampled prefixes of ``j + 1`` bits that end in 0, then those
    that end in 1, each in the order of the level-``j`` rows they extend;
    ``plan[j]`` holds those rows' parents, one array per symbol.  Returns
    the plan and, per leaf, whether it is a 1-input."""
    # keyed by the input's bits reversed: the low j bits of a key are its
    # j-bit prefix reversed, and their order is the row order of level j
    value = {}
    for v, mask in ((True, yes), (False, no)):
        idx = np.flatnonzero(mask)
        for x in idx[np.linspace(0, idx.size - 1, min(m, idx.size)).round().astype(int)].tolist():
            value[int(f"{x:0{n}b}"[::-1], 2)] = v
    keys = sorted(value)
    plan, rows = [], {0: 0}
    for j in range(n):
        level = sorted({key & ((2 << j) - 1) for key in keys})
        parents = [rows[key & ((1 << j) - 1)] for key in level]
        ones = bisect.bisect_left(level, 1 << j)
        plan.append((np.array(parents[:ones], dtype=np.intp),
                     np.array(parents[ones:], dtype=np.intp)))
        rows = {key: r for r, key in enumerate(level)}
    return plan, np.array([value[key] for key in keys], dtype=bool)


def _survivors(edges: np.ndarray, plan, value: np.ndarray) -> np.ndarray:
    """Per word of ``edges``, the programs that the check, run on the
    sample alone, finds feasible: bit ``i`` is clear when a sampled
    1-input's reachable set lies inside the union of the sampled 0-inputs'
    sets.  ``plan`` and ``value`` are a :func:`_sample_tree`; each level
    steps the rows that read 0, then those that read 1."""
    w, _, _, size = edges.shape
    planes = np.zeros((1, w, size), dtype=np.uint64)
    planes[0, 0] = ~np.uint64(0)  # every program starts at node 0
    for parents in plan:
        step = np.empty((parents[0].size + parents[1].size, w, size), dtype=np.uint64)
        at = 0
        for sym, rows in enumerate(parents):
            x, y = planes[rows], step[at:at + rows.size]
            np.bitwise_and(x[:, 0, None], edges[0, sym], out=y)
            for s in range(1, w):
                y |= x[:, s, None] & edges[s, sym]
            at += rows.size
        planes = step
    return _feasible(planes, value, ~value)[1]


def _feasible(planes: np.ndarray, yes: np.ndarray, no: np.ndarray):
    """The check of the module docstring on the final planes of the inputs
    ``yes`` and ``no`` pick out: per 1-input, the planes of the nodes it
    reaches and no 0-input does; per word, the programs in which every
    1-input has one."""
    allowed = planes[yes] & ~np.bitwise_or.reduce(planes[no], axis=0)
    return allowed, np.bitwise_and.reduce(np.bitwise_or.reduce(allowed, axis=1), axis=0)


def _edge_planes(kind: str, w: int, first: int, last: int) -> np.ndarray:
    """``edges[s, sym, u, k]``: bit ``i`` is set when program
    ``64*(first + k) + i`` has the edge ``s -> u`` on symbol ``sym``.
    Source-major, so that one source's words for both symbols and every
    target are one contiguous block."""
    d = np.arange(2 * w).reshape(2, w).T  # d[s, sym] = sym*w + s
    if kind == "deterministic":  # the successor is the base-w digit d
        # uint32, as numpy divides it several times faster than int64
        p = np.arange(64 * first, 64 * last, dtype=np.uint32)
        digits = p // (w ** d[..., None]).astype(np.uint32) % w
        edge = digits[:, :, None] == np.arange(w, dtype=np.uint32)[:, None]
        return np.packbits(edge, axis=-1, bitorder="little").view("<u8")
    # the edge is bit b = w*d + u of 64*k | i: below bit 6 a bit of the
    # lane i, one fixed pattern per b; from bit 6 up a bit of 64*k, which
    # sets or clears the whole word
    b = (w * d[..., None] + np.arange(w)).astype(np.uint64)[..., None]
    lanes = np.packbits(np.arange(64, dtype=np.uint64) >> b & 1, axis=-1, bitorder="little")
    return lanes.view("<u8") | -(np.arange(first, last, dtype=np.uint64) << 6 >> b & 1)


def _final_planes(edges: np.ndarray, n: int) -> np.ndarray:
    """``planes[x, u, k]``: bit ``i`` is set when program ``i`` of word
    ``k`` reaches node ``u`` on input ``x``, in truth-table order: each
    step (module docstring) puts prefix ``p`` extended by ``sym`` at
    ``2*p + sym``."""
    w, _, _, size = edges.shape
    planes = np.zeros((1, w, size), dtype=np.uint64)
    planes[0, 0] = ~np.uint64(0)  # every program starts at node 0
    for _ in range(n):
        step = planes[:, None, 0, None] & edges[0]
        for s in range(1, w):
            step |= planes[:, None, s, None] & edges[s]
        planes = step.reshape(-1, w, size)
    return planes


def _enumerated_program(kind: str, n: int, edges: np.ndarray, accept: np.ndarray) -> ObddProgram:
    """The stable program whose edge ``s -> u`` on ``sym`` is set in
    ``edges[s, sym, u]`` (one program's bit of the edge planes), accepting
    at the nodes ``accept``."""
    w = edges.shape[0]
    on = [[np.flatnonzero(edges[s, sym]).tolist() for s in range(w)] for sym in (0, 1)]
    if kind == "deterministic":
        level = level_map(*([succ for (succ,) in row] for row in on))
    else:
        level = level_relation(*on, w)
    return _stable_program(kind, n, level, accept)


# ---------------------------------------------------------------------------
# minimum over variable orders
# ---------------------------------------------------------------------------

def _symmetric(table: np.ndarray, n: int) -> bool:
    """Whether the table is invariant under every permutation of its
    variables: the transposition (0 1) and the cycle (0 1 ... n-1) generate
    the symmetric group, so invariance under those two suffices (and for
    n = 1 there is nothing to check)."""
    return all(np.array_equal(cube_transpose(table, axes), table)
               for axes in ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1)


def _subset_search(table: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """Per-level widths and order of the lexicographically first order of
    least width of a total table, from the class count of every set ``S``
    of variables (bit ``v`` of ``S`` is variable ``v``).

    ``count[S]`` is the number of classes of the prefixes over ``S``: the
    width at level ``|S|`` of every order that reads ``S`` first.  The ids
    of the assignments to ``S`` (its variables read in increasing order,
    the first as the high bit) come from the ids of ``S | {v}``, ``v`` the
    lowest variable missing from ``S``, as :class:`_Classes` gets a level
    from the one below: ``v`` sits at bit position ``v`` there, so the two
    halves on ``v`` pair up.  Only two adjacent set sizes are held, about
    ``3**n`` ids in all.  ``reach[S]``, the least possible maximum of
    ``count`` along a chain of sets from ``S`` up to all variables, is
    filled in on the way down; the order then takes, level by level, the
    lowest variable that keeps the minimum ``reach[0]`` reachable.
    """
    full = (1 << n) - 1
    count = np.empty(1 << n, dtype=np.int64)
    leaf, leaf_ids = _leaf_ids(table)
    ids = {full: leaf_ids}
    count[full] = leaf.size
    size_of = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    reach = count.copy()
    for size in range(n - 1, -1, -1):
        sets = np.flatnonzero(size_of == size)
        below = {}
        for s in sets.tolist():
            v = (~s & (s + 1)).bit_length() - 1
            above = s | 1 << v
            halves = ids[above].reshape(1 << v, 2, -1)
            pairs, below[s] = _pair_ranks(halves[:, 0], halves[:, 1], int(count[above]))
            count[s] = pairs.size
        ids = below
        best = np.full(sets.size, np.iinfo(np.int64).max)
        for v in range(n):
            free = (sets >> v & 1) == 0
            best[free] = np.minimum(best[free], reach[sets[free] | 1 << v])
        reach[sets] = np.maximum(count[sets], best)
    chosen, order, per_level = 0, [], [int(count[0])]
    for _ in range(n):
        v = next(v for v in range(n) if not chosen >> v & 1 and reach[chosen | 1 << v] <= reach[0])
        chosen |= 1 << v
        order.append(v)
        per_level.append(int(count[chosen]))
    return per_level, order


def min_width_over_orders(f: FunctionSpec) -> WidthReport:
    """Minimum exact width over all n! variable orders (n <= ``_ORDER_N_CAP``).

    The table picks one of three paths, and ``method`` names it:

    * a table invariant under every order (:func:`_symmetric`, checked on
      the table, never assumed from the family) gets one exact oracle
      call under the natural order, within that oracle's own caps;
    * a total table gets the bottleneck path over the ``2**n`` sets of
      variables (Friedman & Supowit, "Finding the optimal variable ordering
      for binary decision diagrams", IEEE Trans. Computers 39(5), 1990):
      the width at level ``j`` depends only on the set of variables read
      so far (:func:`_subset_search`);
    * any other partial table gets the partition search under each of the
      n! orders, for ``n <= 8``.

    Each path reports the lexicographically first order of least width,
    with its per-level widths.
    """
    n = f.n
    if n > _ORDER_N_CAP:
        raise CapExceededError(f"order search needs n <= {_ORDER_N_CAP}, got {n}")
    table = f.truth_table()
    total = STAR not in table
    if _symmetric(table, n):
        at = subfunction_widths(f) if total else partial_min_width_exact(f)
        per_level, order = at.per_level, at.order
        method = "one exact oracle call: the table is invariant under every order"
    elif total:
        per_level, order = _subset_search(table, n)
        method = f"bottleneck path over the 2**{n} variable subsets (Friedman & Supowit 1990)"
    else:
        if n > _PERMUTATION_CAP:
            raise CapExceededError(
                f"order search on a partial table that is not symmetric tries all n! "
                f"orders and needs n <= {_PERMUTATION_CAP}, got {n}")
        at = min((partial_min_width_exact(f, VariableOrder(n, perm))
                  for perm in itertools.permutations(range(n))),
                 key=lambda report: report.max_width)  # the first of least width
        per_level, order = at.per_level, at.order
        method = f"minimum of the per-order partition search over all {n}! orders"
    return WidthReport(
        per_level=tuple(per_level),
        kind="exact",
        method=method,
        order=tuple(order),
    )
