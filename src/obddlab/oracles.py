"""Independent width oracles.

These compute, by brute force over truth tables, how wide a program *must*
be, so that the widths of the explicit constructions can be checked against
something that knows nothing about how the constructions work.

* :func:`subfunction_widths` -- exact minimal width per level for a *total*
  function under a fixed order: the number of distinct subfunctions induced
  by prefixes (the quotient argument).
* :func:`distinguishability_lower_bound` -- for partial functions: at each
  level, the largest set of prefix classes that are pairwise *comparable*
  (same set of defined suffixes) and *nonequivalent* (some defined suffix
  separates them); such classes must occupy distinct nodes.
* :func:`partial_min_width_exact` -- exact minimal width for a partial
  function under a fixed order, by searching partition sequences of prefix
  classes (see below).
* :func:`stable_exhaustive_search` -- enumerate every stable ID program of
  a given width and kind, and return one computing the function, or none.
* :func:`min_width_over_orders` -- minimum of the per-order exact oracle
  over all n! variable orders.

Partition-sequence search
-------------------------
Group the length-``j`` prefixes by their *row*: the map from suffixes to
{0, 1, undefined}.  Prefixes with identical rows may share a node without
loss of generality, so a width-``w`` program induces, per level, a
partition of these prefix classes into at most ``w`` blocks such that

(a) every block is *consistent*: no suffix is mapped to 0 by one row of
    the block and 1 by another (undefined entries are free), and
(b) the 0-successors of a block all land in one block of the next level,
    and likewise the 1-successors.

Conversely any such partition sequence yields a correct program with
``max_j |P_j|`` nodes per level, so the minimum over sequences is the
exact minimal width.  The search runs feasibility tests for increasing
``w``: from a partition, the next level's *forced* partition (the finest
one satisfying (b)) is computed by union-find; finer partitions dominate
coarser ones, so only when the forced partition exceeds ``w`` blocks does
the search branch over ways of merging it down to exactly ``w`` consistent
blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row; keys compare and sort like the row contents."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _classify_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, first_indices): class id per row, representative row index
    per class.  Class ids follow the sorted order of row contents."""
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return inverse.astype(np.int64), first.astype(np.int64)


def _star_group_max(class_rows: np.ndarray) -> int:
    """Most class rows that share one set of undefined suffixes."""
    groups: dict[bytes, int] = {}
    for row in class_rows:
        mask = (row == STAR).tobytes()
        groups[mask] = groups.get(mask, 0) + 1
    return max(groups.values())


def prefix_classes(f: FunctionSpec, order: VariableOrder | None, level: int) -> list[PrefixClass]:
    """The distinct prefix behavior classes at one level."""
    table, order = _ordered_table(f, order)
    n = f.n
    if not 0 <= level <= n:
        raise ValueError(f"level must be in 0..{n}")
    rows = table.reshape(1 << level, -1)
    _, first = _classify_rows(rows)
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
    if np.any(table == STAR):
        raise ValueError(f"{f.name} is partial; use partial_min_width_exact")
    per_level = []
    for j in range(f.n + 1):
        # only the count is needed, and the per-order search calls this n! times
        per_level.append(len(np.unique(_row_keys(table.reshape(1 << j, -1)))))
    return WidthReport(
        per_level=tuple(per_level),
        max_width=max(per_level),
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
    per_level = []
    for j in range(f.n + 1):
        rows = table.reshape(1 << j, -1)
        _, first = _classify_rows(rows)
        per_level.append(_star_group_max(rows[first]))
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

class _Levels:
    """Per-level class rows and successor maps for the partition search."""

    def __init__(self, table: np.ndarray, n: int):
        self.n = n
        self.rows: list[np.ndarray] = []        # (classes, suffix_len) per level
        self.succ: list[tuple[np.ndarray, np.ndarray] | None] = []
        inverses = []
        firsts = []
        for j in range(n + 1):
            level_rows = table.reshape(1 << j, -1)
            inverse, first = _classify_rows(level_rows)
            inverses.append(inverse)
            firsts.append(first)
            self.rows.append(level_rows[first])
        for j in range(n):
            reps = firsts[j]
            self.succ.append((inverses[j + 1][2 * reps], inverses[j + 1][2 * reps + 1]))
        self.succ.append(None)
        self._conflict_cache: list[dict[tuple[int, int], bool]] = [{} for _ in range(n + 1)]

    def num_classes(self, j: int) -> int:
        return self.rows[j].shape[0]

    def conflict(self, j: int, c1: int, c2: int) -> bool:
        """Do two class rows force different nodes (0 meets 1 at some suffix)?"""
        if c1 == c2:
            return False
        key = (c1, c2) if c1 < c2 else (c2, c1)
        cache = self._conflict_cache[j]
        hit = cache.get(key)
        if hit is None:
            r1, r2 = self.rows[j][key[0]], self.rows[j][key[1]]
            hit = bool(np.any(((r1 == 0) & (r2 == 1)) | ((r1 == 1) & (r2 == 0))))
            cache[key] = hit
        return hit

    def block_consistent(self, j: int, block: tuple[int, ...]) -> bool:
        # pairwise suffices: a 0/1 clash always involves exactly two rows
        return all(
            not self.conflict(j, a, b) for a, b in itertools.combinations(block, 2)
        )


def _canonical_blocks(assignment: dict[int, int], m: int) -> tuple[tuple[int, ...], ...]:
    blocks: dict[int, list[int]] = {}
    for c in range(m):
        blocks.setdefault(assignment[c], []).append(c)
    ordered = sorted(blocks.values(), key=lambda b: b[0])
    return tuple(tuple(b) for b in ordered)


def _forced_partition(levels: _Levels, j: int, blocks) -> tuple[tuple[int, ...], ...]:
    """Finest partition of level-(j+1) classes honoring the successor rule."""
    m_next = levels.num_classes(j + 1)
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
    assignment = {c: find(c) for c in range(m_next)}
    return _canonical_blocks(assignment, m_next)


def _merges_into(levels: _Levels, j: int, blocks, w: int):
    """All ways to merge ``blocks`` into exactly ``w`` consistent groups.

    Yields tuples of class-id tuples.  Conflicts between whole blocks are
    precomputed; groups are built with canonical numbering so no partition
    is produced twice.
    """
    m = len(blocks)
    pair_conflict = [[False] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            clash = any(
                levels.conflict(j, x, y) for x in blocks[a] for y in blocks[b]
            )
            pair_conflict[a][b] = pair_conflict[b][a] = clash

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


def _search(levels: _Levels, w: int, class_cap: int):
    """Witness partition sequence with every level <= w blocks, or None."""
    n = levels.n
    dead: list[set] = [set() for _ in range(n + 1)]

    def consistent_partition(j: int, blocks) -> bool:
        return all(levels.block_consistent(j, b) for b in blocks)

    def rec(j: int, blocks):
        if j == n:
            return [blocks]
        key = blocks
        if key in dead[j]:
            return None
        forced = _forced_partition(levels, j, blocks)
        if consistent_partition(j + 1, forced):
            if len(forced) <= w:
                tail = rec(j + 1, forced)
                if tail is not None:
                    return [blocks] + tail
            else:
                if levels.num_classes(j + 1) > class_cap:
                    raise CapExceededError(
                        f"level {j + 1} has {levels.num_classes(j + 1)} prefix classes "
                        f"(> cap {class_cap}) and the search must branch"
                    )
                for merged in _merges_into(levels, j + 1, forced, w):
                    tail = rec(j + 1, merged)
                    if tail is not None:
                        return [blocks] + tail
        dead[j].add(key)
        return None

    start = ((0,),)  # single empty-prefix class
    return rec(0, start)


def partial_min_width_exact(f: FunctionSpec, order: VariableOrder | None = None,
                            *, class_cap: int = 12, n_cap: int = 12) -> WidthReport:
    """Exact minimal OBDD width of a (possibly partial) function.

    Searches partition sequences of prefix behavior classes (module
    docstring); the answer for a total function coincides with
    :func:`subfunction_widths`.  ``class_cap`` bounds the class count at
    levels where the search has to branch over merges.
    """
    report, _ = _partial_min_width_witness(f, order, class_cap=class_cap, n_cap=n_cap)
    return report


def _partial_min_width_witness(f, order, *, class_cap: int, n_cap: int):
    if f.n > n_cap:
        raise CapExceededError(f"partial oracle needs n <= {n_cap}, got {f.n}")
    table, order = _ordered_table(f, order)
    levels = _Levels(table, f.n)
    lower = max(_star_group_max(rows) for rows in levels.rows)
    upper = max(levels.num_classes(j) for j in range(f.n + 1))
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
    """A deterministic program of exactly the minimal width, built from the
    witness partition sequence of :func:`partial_min_width_exact`."""
    _, (levels, witness, order) = _partial_min_width_witness(
        f, order, class_cap=class_cap, n_cap=n_cap
    )
    n = levels.n
    block_of: list[dict[int, int]] = []
    for partition in witness:
        assignment = {}
        for b, block in enumerate(partition):
            for c in block:
                assignment[c] = b
        block_of.append(assignment)

    maps = []
    for j in range(n):
        succ0, succ1 = levels.succ[j]
        on0, on1 = [], []
        for block in witness[j]:
            anchor = block[0]
            on0.append(block_of[j + 1][int(succ0[anchor])])
            on1.append(block_of[j + 1][int(succ1[anchor])])
        maps.append(level_map(on0, on1))

    accept = set()
    for b, block in enumerate(witness[n]):
        values = {int(levels.rows[n][c][0]) for c in block}
        if 1 in values:  # consistency forbids 0 here
            accept.add(b)
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


def _input_bit(xs: np.ndarray, n: int, j: int) -> np.ndarray:
    # bit consumed at step j (1-based) of an ID program, for packed inputs
    return (xs >> (n - j)) & 1


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
