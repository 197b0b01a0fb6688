"""Known answers that do not come from the library under test.

Three sources, in the order the checks prefer them:

* closed-form values from the paper (NotO n/2+1, PartialMOD 2**(k+1),
  MOD d, NotPAL 3 under the pairing order, the construction widths);
* independent references, written here with plain numpy and sets and cheap
  at the sizes the workloads use: a tuple-set count of distinct rows, the
  minimum over variable orders as a bottleneck path over variable subsets,
  the distinguishability bound, Markov chains built with known periods,
  and (for the partition-search test) the minimum over completions of a
  partial table;
* ``answers.json``: outcomes recorded at the parent commit by
  ``record_answers.py``, for everything else.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

STAR = 2
ANSWERS_PATH = Path(__file__).with_name("answers.json")

#: completions are enumerated only up to this many undefined entries
MAX_COMPLETION_STARS = 16


def load_answers() -> dict:
    with open(ANSWERS_PATH) as fh:
        return json.load(fh)


def table_from_text(text: str) -> np.ndarray:
    """'01*' text (index order) to int8 codes {0, 1, STAR}."""
    return np.frombuffer(text.translate(str.maketrans("01*", "\x00\x01\x02")).encode("latin-1"),
                         dtype=np.int8).copy()


def table_to_text(table: np.ndarray) -> str:
    return "".join("01*"[int(v)] for v in table)


def random_table(rng: np.random.Generator, n: int, undefined: float = 0.0) -> np.ndarray:
    """Uniform 0/1 table with ``round(undefined * 2**n)`` entries set to STAR."""
    table = rng.integers(0, 2, size=1 << n).astype(np.int8)
    stars = int(round(undefined * (1 << n)))
    table[rng.permutation(1 << n)[:stars]] = STAR
    return table


# ---------------------------------------------------------------------------
# distinct rows (tuple-set count)
# ---------------------------------------------------------------------------

def _rows(table: np.ndarray, n: int, first: tuple[int, ...]) -> np.ndarray:
    """Rows indexed by the variables in ``first``, columns by the rest."""
    rest = [v for v in range(n) if v not in first]
    cube = table.reshape((2,) * n).transpose(list(first) + rest)
    return cube.reshape(1 << len(first), -1)


def distinct_rows(table: np.ndarray, n: int, first: tuple[int, ...]) -> int:
    return len({row.tobytes() for row in _rows(table, n, first)})


def natural_widths(table: np.ndarray, n: int) -> list[int]:
    """Per-level subfunction counts of a total table under the natural order."""
    return [distinct_rows(table, n, tuple(range(j))) for j in range(n + 1)]


def min_width_over_orders(table: np.ndarray, n: int) -> int:
    """Minimum over all orders of the maximum level width of a total table.

    The width at level j depends only on the set S of variables read so
    far, so the answer is a bottleneck path from the empty set to the full
    set in the subset lattice (Friedman and Supowit, 1990).
    """
    best = {0: 1}
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            mask = sum(1 << v for v in subset)
            width = distinct_rows(table, n, subset)
            best[mask] = max(width, min(best[mask ^ (1 << v)] for v in subset))
    return best[(1 << n) - 1]


# ---------------------------------------------------------------------------
# partial tables: completions and the distinguishability bound
# ---------------------------------------------------------------------------

def _completions(table: np.ndarray, n: int) -> np.ndarray:
    if n > 6:
        raise ValueError("completion reference packs rows into 64-bit words; needs n <= 6")
    stars = np.flatnonzero(table == STAR)
    if stars.size > MAX_COMPLETION_STARS:
        raise ValueError(f"{stars.size} undefined entries; completions are capped at "
                         f"{MAX_COMPLETION_STARS}")
    count = 1 << stars.size
    out = np.repeat(table[None, :], count, axis=0)
    bits = (np.arange(count)[:, None] >> np.arange(stars.size)[None, :]) & 1
    out[:, stars] = bits.astype(np.int8)
    return out


def _batched_distinct(tables: np.ndarray, n: int, first: tuple[int, ...]) -> np.ndarray:
    """Distinct-row count per table for a batch of total tables (n <= 6)."""
    if not first:
        return np.ones(tables.shape[0], dtype=np.int64)
    rest = [v for v in range(n) if v not in first]
    cube = tables.reshape((tables.shape[0],) + (2,) * n)
    rows = cube.transpose([0] + [v + 1 for v in first] + [v + 1 for v in rest])
    rows = rows.reshape(tables.shape[0], 1 << len(first), -1).astype(np.int64)
    codes = np.sort(rows @ (np.int64(1) << np.arange(rows.shape[2], dtype=np.int64)), axis=1)
    return 1 + np.count_nonzero(np.diff(codes, axis=1), axis=1)


def best_completion(table: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """The minimal natural-order width of a partial table and a completion
    that attains it.

    A program computing a partial function computes one of its completions,
    so the minimum over completions of the subfunction width is the exact
    partial minimum.  Needs at most ``MAX_COMPLETION_STARS`` undefined
    entries and n <= 6.
    """
    tables = _completions(table, n)
    widths = np.ones(tables.shape[0], dtype=np.int64)
    for j in range(n + 1):
        widths = np.maximum(widths, _batched_distinct(tables, n, tuple(range(j))))
    best = int(np.argmin(widths))
    return int(widths[best]), tables[best]


def distinguishability_bound(table: np.ndarray, n: int) -> int:
    """Largest set of distinct prefix rows sharing one undefined-entry mask,
    maximised over levels (natural order)."""
    best = 1
    for j in range(n + 1):
        groups: dict[bytes, int] = {}
        for row in {r.tobytes() for r in _rows(table, n, tuple(range(j)))}:
            mask = bytes(b == STAR for b in row)
            groups[mask] = groups.get(mask, 0) + 1
        best = max(best, max(groups.values()))
    return best


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def noto_width(n: int) -> int:
    """Exact NotO width: n/2 + 1 for even n; the constant 1 for odd n."""
    return n // 2 + 1 if n % 2 == 0 else 1


def eqs_construction_width(k: int) -> int:
    return 8 * 2 ** (k // 4) - 5


# ---------------------------------------------------------------------------
# Markov chains with known structure
# ---------------------------------------------------------------------------

def random_chain(rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """A sparse column-stochastic matrix with known classes and periods.

    Each ergodic class of period t is a directed cycle of t*m states whose
    position p lies in cyclic subset p mod t, plus a chord that skips t
    positions (so the cycle lengths have gcd exactly t) and random extra
    edges that respect the cyclic subsets.  Transient states point forward
    to later transient states or into the classes.  Labels are shuffled.
    """
    n_classes = int(rng.integers(1, 4))
    periods = [int(rng.choice([1, 2, 3, 4, 6, 8])) for _ in range(n_classes)]
    edges: list[tuple[int, int]] = []
    members: list[list[int]] = []
    base = 0
    for t in periods:
        m = int(rng.integers(2, 5))
        size = t * m
        states = list(range(base, base + size))
        for p in range(size):
            edges.append((states[p], states[(p + 1) % size]))
        edges.append((states[0], states[(1 + t) % size]))
        for _ in range(size // 2):
            p = int(rng.integers(size))
            q = (p + 1 + t * int(rng.integers(m))) % size
            edges.append((states[p], states[q]))
        members.append(states)
        base += size
    class_states = base
    n_transient = int(rng.integers(0, 6))
    for i in range(n_transient):
        s = class_states + i
        for _ in range(int(rng.integers(1, 3))):
            later = n_transient - i - 1
            if later and rng.random() < 0.5:
                edges.append((s, s + 1 + int(rng.integers(later))))
            else:
                edges.append((s, int(rng.integers(class_states))))
    total = class_states + n_transient
    label = rng.permutation(total)
    m = np.zeros((total, total))
    for s, t in set(edges):
        m[label[t], label[s]] = 1.0
    m /= m.sum(axis=0, keepdims=True)
    classes = sorted(
        (min(int(label[s]) for s in states), t) for states, t in zip(members, periods)
    )
    expected = {
        "states": total,
        "periods": [t for _, t in classes],
        "transient": n_transient,
        "period_lcm": math.lcm(*periods),
    }
    return m, expected


def certificate_passes(periods: list[int], k: int) -> bool:
    """The period certificate's rule: 2**(k+1) divides the lcm of the class
    periods and some single class period."""
    required = 1 << (k + 1)
    return math.lcm(*periods) % required == 0 and any(t % required == 0 for t in periods)
