"""Independent width oracles.

These compute, by brute force over truth tables, how wide a program *must*
be, so that the widths of the explicit constructions can be checked against
something that knows nothing about how the constructions work.

Under a fixed order, the *row* of a length-``j`` prefix maps suffixes to
{0, 1, undefined}; prefixes with equal rows form a *class*.  One routine,
:class:`_Classes`, finds the classes of every level bottom-up, as OBDD
reduction does (Bryant 1986; Sieling & Wegener 1993): the level-``n``
classes are the distinct leaf codes, a prefix ``p`` is classed by the pair
(class of ``p0``, class of ``p1``), and the distinct pairs are the
successor maps.  The first four oracles read its output.

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
  a given width and kind, and return one computing the function, or none.
* :func:`min_width_over_orders` -- minimum of the per-order exact oracle
  over all n! variable orders.

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
blocks.  This is exact for total functions.  For partial functions it can
*overestimate*: "prefixes with identical rows may share a node" does not
hold there, since the narrowest program may have to split a class over
several nodes (``partial_mod(1, 5)`` gets 4 where a width-3 program
exists; see ``bench/README.md``).  The reports still say ``kind="exact"``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    CapExceededError,
    ObddProgram,
    VariableOrder,
    cube_transpose,
    level_map,
    level_relation,
    natural_order,
)
from .functions import STAR, FunctionSpec

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


@dataclass(frozen=True)
class PrefixClass:
    """A behavior class of length-``level`` prefixes under a fixed order."""

    level: int
    representative: str
    row: np.ndarray  # suffix -> {0, 1, STAR}

    @property
    def star_mask(self) -> bytes:
        return (self.row == STAR).tobytes()


@dataclass(frozen=True)
class WidthReport:
    """Per-level width values with provenance.

    ``kind`` is ``exact`` (a true minimal width), ``lower_bound`` (no
    correct program can be narrower) or ``construction`` (level sizes of a
    concrete program).
    """

    per_level: tuple[int, ...]
    max_width: int
    kind: str
    method: str
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "lower_bound", "construction"):
            raise ValueError(f"unknown report kind {self.kind!r}")
        if self.max_width != max(self.per_level):
            raise ValueError("max_width must equal max(per_level)")


# ---------------------------------------------------------------------------
# tables and prefix classes
# ---------------------------------------------------------------------------

def _ordered_table(f: FunctionSpec, order: VariableOrder | None) -> tuple[np.ndarray, VariableOrder]:
    order = order or natural_order(f.n)
    if order.n != f.n:
        raise ValueError(f"order is over n = {order.n} but function has n = {f.n}")
    return cube_transpose(f.truth_table(), order.perm), order


def _pair_ranks(left: np.ndarray, right: np.ndarray, k: int):
    """Rank the pairs ``(left[i], right[i])`` of ids below ``k`` in
    lexicographic order.  Returns the distinct pairs as sorted keys
    ``left * k + right``, and the rank of every input pair."""
    key = left.astype(np.int32 if k * k < 1 << 31 else np.int64)
    key *= k
    key += right
    # np.unique by hand: its wrapper outweighs the sort at the sizes the
    # order search uses, and its hashing path is slower on large levels
    pairs = np.sort(key)
    distinct = np.empty(pairs.size, dtype=bool)
    distinct[0] = True
    np.not_equal(pairs[1:], pairs[:-1], out=distinct[1:])
    pairs = pairs[distinct]
    return pairs, pairs.searchsorted(key)


class _Classes:
    """The prefix classes of an ordered table at every level ``0..n``.

    * ``ids[j][p]`` -- class of the length-``j`` prefix ``p`` (its bits in
      test order, read as a number);
    * ``counts[j]`` -- number of classes at level ``j``;
    * ``succ[j] = (s0, s1)`` -- class of each class's 0- and 1-extension;
    * ``leaf[c]`` -- the code {0, 1, STAR} of level-``n`` class ``c``.

    Class ids follow the sorted order of the rows: all rows of one level
    have the same length, so once a level's ids follow row order, so does
    the order of the pairs ranked one level up.
    """

    def __init__(self, table: np.ndarray):
        n = self.n = table.size.bit_length() - 1
        self.leaf = np.flatnonzero(np.bincount(table, minlength=STAR + 1))
        self.ids = [None] * n + [self.leaf.searchsorted(table)]
        self._pairs = [None] * n
        k = self.leaf.size
        for j in range(n - 1, -1, -1):
            below = self.ids[j + 1]
            self._pairs[j], self.ids[j] = _pair_ranks(below[0::2], below[1::2], k)
            k = self._pairs[j].size
        self.counts = [pairs.size for pairs in self._pairs] + [self.leaf.size]
        self._clash: list[tuple[np.ndarray, list[int]] | None] = [None] * (n + 1)

    @cached_property
    def succ(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # split only on demand: the order search reads nothing but counts
        return [np.divmod(pairs, k) for pairs, k in zip(self._pairs, self.counts[1:])]

    def star_group_maxima(self) -> list[int]:
        """Per level, the most classes that share one set of undefined
        suffixes.  Those sets are ranked like the classes, over classes
        instead of prefixes, from the undefined leaf code up."""
        group, k = (self.leaf == STAR).astype(np.int64), 2
        maxima = [int(np.bincount(group).max())]
        for s0, s1 in reversed(self.succ):
            pairs, group = _pair_ranks(group[s0], group[s1], k)
            k = pairs.size
            maxima.append(int(np.bincount(group).max()))
        return maxima[::-1]

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


def prefix_classes(f: FunctionSpec, order: VariableOrder | None, level: int) -> list[PrefixClass]:
    """The distinct prefix behavior classes at one level; each
    representative is the first prefix of its class."""
    table, order = _ordered_table(f, order)
    n = f.n
    if not 0 <= level <= n:
        raise ValueError(f"level must be in 0..{n}")
    rows = table.reshape(1 << level, -1)
    _, first = np.unique(_Classes(table).ids[level], return_index=True)
    return [
        PrefixClass(level, format(int(i), f"0{level}b") if level else "", rows[i])
        for i in first
    ]


# ---------------------------------------------------------------------------
# exact oracle for total functions
# ---------------------------------------------------------------------------

def subfunction_widths(f: FunctionSpec, order: VariableOrder | None = None,
                       *, n_cap: int = 22) -> WidthReport:
    """Exact minimal OBDD width of a total function under one order.

    Level ``j`` needs exactly as many nodes as there are distinct
    subfunctions induced by length-``j`` prefixes, and that many suffice.
    """
    if f.n > n_cap:
        raise CapExceededError(f"subfunction oracle needs n <= {n_cap}, got {f.n}")
    table, order = _ordered_table(f, order)
    classes = _Classes(table)
    if STAR in classes.leaf:
        raise ValueError(f"{f.name} is partial; use partial_min_width_exact")
    return WidthReport(
        per_level=tuple(classes.counts),
        max_width=max(classes.counts),
        kind="exact",
        method="distinct subfunctions per level",
        order=order.perm,
    )


# ---------------------------------------------------------------------------
# lower bound for partial functions
# ---------------------------------------------------------------------------

def distinguishability_lower_bound(f: FunctionSpec, order: VariableOrder | None = None,
                                   *, n_cap: int = 20) -> WidthReport:
    """Largest pairwise comparable-and-nonequivalent class set per level.

    Comparability (equal sets of defined suffixes) is an equivalence on
    classes, so the comparability graph is a union of groups; distinct rows
    in one group always differ on a defined suffix, hence every group is a
    clique of nonequivalent classes and the exact maximum clique is simply
    the largest group.
    """
    if f.n > n_cap:
        raise CapExceededError(f"distinguishability oracle needs n <= {n_cap}, got {f.n}")
    table, order = _ordered_table(f, order)
    per_level = _Classes(table).star_group_maxima()
    return WidthReport(
        per_level=tuple(per_level),
        max_width=max(per_level),
        kind="lower_bound",
        method="max set of pairwise comparable nonequivalent prefix classes",
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


def partial_min_width_exact(f: FunctionSpec, order: VariableOrder | None = None,
                            *, class_cap: int = 12, n_cap: int = 12) -> WidthReport:
    """Minimal OBDD width of a (possibly partial) function.

    Searches partition sequences of prefix behavior classes (module
    docstring).  For a total function the answer is exact and coincides
    with :func:`subfunction_widths`.  For a partial function it can be too
    high: the search assumes that prefixes with identical rows may share a
    node, which is unsound (module docstring, ``bench/README.md``); the
    report still says ``kind="exact"``.  ``class_cap`` bounds the class
    count at levels where the search has to branch over merges.
    """
    report, _ = _partial_min_width_witness(f, order, class_cap=class_cap, n_cap=n_cap)
    return report


def _partial_min_width_witness(f, order, *, class_cap: int, n_cap: int):
    if f.n > n_cap:
        raise CapExceededError(f"partial oracle needs n <= {n_cap}, got {f.n}")
    table, order = _ordered_table(f, order)
    levels = _Classes(table)
    lower = max(levels.star_group_maxima())
    upper = max(levels.counts)
    for w in range(lower, upper + 1):
        witness = _search(levels, w, class_cap)
        if witness is not None:
            per_level = tuple(len(p) for p in witness)
            return (
                WidthReport(
                    per_level=per_level,
                    max_width=max(per_level),
                    kind="exact",
                    method="partition-sequence search over prefix classes",
                    order=order.perm,
                ),
                (levels, witness, order),
            )
    raise AssertionError("partition search failed to terminate(unreachable)")


def minimal_obdd(f: FunctionSpec, order: VariableOrder | None = None,
                 *, class_cap: int = 12, n_cap: int = 12) -> ObddProgram:
    """A deterministic program of the width :func:`partial_min_width_exact`
    reports, built from the witness partition sequence of its search."""
    _, (levels, witness, order) = _partial_min_width_witness(
        f, order, class_cap=class_cap, n_cap=n_cap
    )
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
        stable=False,
    )


# ---------------------------------------------------------------------------
# exhaustive search over stable ID programs
# ---------------------------------------------------------------------------

def _defined_inputs(f: FunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    table = f.truth_table()
    return np.flatnonzero(table == 1), np.flatnonzero(table == 0)


def stable_exhaustive_search(f: FunctionSpec, width: int, kind: str,
                             *, det_cap: int = 4, nondet_cap: int = 3,
                             n_cap: int = 16) -> ObddProgram | None:
    """Search all stable ID programs of the given width for one computing f.

    Enumerates every transition pair (``w**(2w)`` deterministic maps or
    ``2**(2*w*w)`` relations) with initial node 0 -- exhaustive up to node
    relabeling -- and simulates all defined inputs for all programs at once
    with vectorized gathers.  An accepting set exists iff no final state
    (or reachable set) is shared between a 1-input and a 0-input, so
    accepting sets are never enumerated explicitly.
    """
    n = f.n
    if n > n_cap:
        raise CapExceededError(f"stable search needs n <= {n_cap}, got {n}")
    if kind == "deterministic":
        if width > det_cap:
            raise CapExceededError(f"deterministic search capped at width {det_cap}")
        return _search_det(f, width)
    if kind == "nondeterministic":
        if width > nondet_cap:
            raise CapExceededError(f"nondeterministic search capped at width {nondet_cap}")
        return _search_nondet(f, width)
    raise ValueError(f"search supports classical kinds, not {kind!r}")


def _search_det(f: FunctionSpec, w: int) -> ObddProgram | None:
    n = f.n
    yes, no = _defined_inputs(f)
    count = w ** (2 * w)
    idx = np.arange(count, dtype=np.int64)
    # digit s of the mixed-radix program index is delta[sym][s]
    delta = np.empty((2, w, count), dtype=np.int64)
    for sym in (0, 1):
        for s in range(w):
            delta[sym, s] = (idx // (w ** (sym * w + s))) % w

    def finals(xs: np.ndarray, accumulate: np.ndarray):
        for x in xs:
            state = np.zeros(count, dtype=np.int64)
            for j in range(1, n + 1):
                b = int((int(x) >> (n - j)) & 1)
                state = delta[b, state, idx]
            accumulate |= np.int64(1) << state

    yes_mask = np.zeros(count, dtype=np.int64)
    no_mask = np.zeros(count, dtype=np.int64)
    finals(yes, yes_mask)
    finals(no, no_mask)
    feasible = (yes_mask & no_mask) == 0
    hits = np.flatnonzero(feasible)
    if hits.size == 0:
        return None
    p = int(hits[0])
    on = [[int(delta[sym, s, p]) for s in range(w)] for sym in (0, 1)]
    accept = {s for s in range(w) if (int(yes_mask[p]) >> s) & 1}
    return ObddProgram(
        kind="deterministic",
        order=natural_order(n),
        widths=(w,) * (n + 1),
        levels=(level_map(on[0], on[1]),) * n,
        initial=0,
        accept=frozenset(accept),
        stable=True,
    )


def _search_nondet(f: FunctionSpec, w: int) -> ObddProgram | None:
    n = f.n
    yes, no = _defined_inputs(f)
    count = 1 << (2 * w * w)
    idx = np.arange(count, dtype=np.int64)
    full = (1 << w) - 1
    # per-node successor bitmask, then subset-DP to masks of reachable sets
    row = np.empty((2, w, count), dtype=np.int64)
    for sym in (0, 1):
        for s in range(w):
            row[sym, s] = (idx >> (sym * w * w + s * w)) & full
    nxt = np.zeros((2, 1 << w, count), dtype=np.int64)
    for sym in (0, 1):
        for mask in range(1, 1 << w):
            low = mask & -mask
            nxt[sym, mask] = nxt[sym, mask ^ low] | row[sym, low.bit_length() - 1]

    def final_masks(x: int) -> np.ndarray:
        state = np.ones(count, dtype=np.int64)  # reachable set {0}
        for j in range(1, n + 1):
            b = int((x >> (n - j)) & 1)
            state = nxt[b, state, idx]
        return state

    forbidden = np.zeros(count, dtype=np.int64)
    for x in no:
        forbidden |= final_masks(int(x))
    ok = np.ones(count, dtype=bool)
    for x in yes:
        ok &= (final_masks(int(x)) & ~forbidden) != 0
        if not ok.any():
            return None
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    p = int(hits[0])
    rels = [
        [[t for t in range(w) if (int(row[sym, s, p]) >> t) & 1] for s in range(w)]
        for sym in (0, 1)
    ]
    accept = {s for s in range(w) if not (int(forbidden[p]) >> s) & 1}
    return ObddProgram(
        kind="nondeterministic",
        order=natural_order(n),
        widths=(w,) * (n + 1),
        levels=(level_relation(rels[0], rels[1], w),) * n,
        initial=0,
        accept=frozenset(accept),
        stable=True,
    )


# ---------------------------------------------------------------------------
# order enumeration
# ---------------------------------------------------------------------------

def min_width_over_orders(f: FunctionSpec, *, n_cap: int = 8,
                          class_cap: int = 12) -> WidthReport:
    """Minimum exact width over all n! variable orders (n <= ``n_cap``)."""
    n = f.n
    if n > n_cap:
        raise CapExceededError(f"order enumeration needs n <= {n_cap}, got {n}")
    total = f.total
    best: WidthReport | None = None
    for perm in itertools.permutations(range(n)):
        order = VariableOrder(n, perm)
        if total:
            report = subfunction_widths(f, order)
        else:
            report = partial_min_width_exact(f, order, class_cap=class_cap, n_cap=n_cap)
        if best is None or report.max_width < best.max_width:
            best = report
    return WidthReport(
        per_level=best.per_level,
        max_width=best.max_width,
        kind="exact",
        method=f"minimum of the per-order exact oracle over all {n}! orders",
        order=best.order,
    )
