"""Classification of finite Markov chains, and the period certificate used
against stable probabilistic programs.

A column-stochastic matrix ``M`` (``M[t, s]`` is the probability of moving
from state ``s`` to state ``t``) induces a directed graph on its states.
The strongly connected components that no edge leaves are the *ergodic*
sets: once entered they are never left.  All remaining states are
*transient*.  Each ergodic class has a *period* ``t``: the gcd of the
lengths of its closed walks.  A class of period 1 is *regular* (high powers
of the matrix restricted to it are strictly positive and the state
distribution converges); a class of period ``t > 1`` is *cyclic* and splits
into ``t`` cyclic subsets visited in rotation, so the class has at least
``t`` states.

The certificate: consider a stable program that reads a block of ones as a
Markov chain (the symbol-1 transition applied repeatedly).  If the program
distinguishes, with bounded error, input lengths that differ in their count
of ones mod ``2**(k+1)``, then the least common multiple ``D`` of its class
periods must be divisible by ``2**(k+1)`` -- otherwise the acceptance
probability along the all-ones tail converges on a ``D``-periodic schedule
that cannot separate the two residue classes.  Moreover some single class
period must be divisible by ``2**(k+1)`` (powers of two in an lcm come from
one term), which forces at least ``2**(k+1)`` states.

Periods and cyclic subsets are computed structurally (BFS level labels and
gcds over edges), never from matrix powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STRUCT_TOL

#: matrix entries above this count as edges of the transition digraph
EDGE_TOL = 1e-12

__all__ = [
    "MarkovDecomposition",
    "CertificateResult",
    "classify_states",
    "period_lcm_certificate",
    "limiting_distribution",
]


@dataclass(frozen=True)
class MarkovDecomposition:
    """Ergodic/transient split of a chain, with per-class period structure.

    ``cyclic_subsets[i]`` lists the period-many subsets of class ``i`` in
    rotation order: one step from subset ``r`` lands entirely in subset
    ``(r + 1) % period``.  ``period_lcm`` is the lcm ``D`` of all class
    periods.
    """

    transient: frozenset[int]
    ergodic_classes: tuple[frozenset[int], ...]
    periods: tuple[int, ...]
    cyclic_subsets: tuple[tuple[frozenset[int], ...], ...]
    period_lcm: int

    @property
    def states(self) -> int:
        return len(self.transient) + sum(len(c) for c in self.ergodic_classes)


def _require_column_stochastic(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.any(m < -STRUCT_TOL):
        raise ValueError("matrix has negative entries")
    sums = m.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > STRUCT_TOL)
    if bad.size:
        raise ValueError(f"column {int(bad[0])} sums to {sums[bad[0]]:.6g}, not 1")
    return m


def _class_period_and_subsets(nodes: list[int], adj: dict[int, list[int]]):
    """Period (gcd of closed-walk lengths) and rotation-ordered cyclic subsets."""
    root = nodes[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in nodes:
        for v in adj[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    period = abs(g) if g else 1
    subsets = [set() for _ in range(period)]
    for u in nodes:
        subsets[level[u] % period].add(u)
    return period, tuple(frozenset(s) for s in subsets)


def classify_states(m: np.ndarray, *, edge_tol: float = EDGE_TOL) -> MarkovDecomposition:
    """Decompose a column-stochastic matrix into transient states and
    ergodic classes with periods and cyclic subsets.

    Edges are entries above ``edge_tol`` (structural zeros only; rounding
    noise stays below it).  Ergodic classes are the sink components of the
    condensation of that digraph.
    """
    # imported here: scipy.sparse.csgraph is most of the time and memory of
    # importing the package, and nothing else needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    m = _require_column_stochastic(m)
    d = m.shape[0]
    # adjacency[s][t]: edge s -> t, i.e. transpose of the column convention
    edges = m.T > edge_tol
    n_comp, labels = connected_components(
        csgraph=csr_matrix(edges), directed=True, connection="strong"
    )
    has_exit = np.zeros(n_comp, dtype=bool)  # sink components are the ergodic sets
    src, dst = np.nonzero(edges)
    for s, t in zip(src, dst):
        if labels[s] != labels[t]:
            has_exit[labels[s]] = True

    adj = {s: [int(t) for t in np.flatnonzero(edges[s])] for s in range(d)}
    transient: set[int] = set()
    classes: list[frozenset[int]] = []
    periods: list[int] = []
    subsets: list[tuple[frozenset[int], ...]] = []
    for comp in range(n_comp):
        members = [int(s) for s in np.flatnonzero(labels == comp)]
        if has_exit[comp]:
            transient.update(members)
            continue
        inner = {u: [v for v in adj[u] if labels[v] == comp] for u in members}
        period, cyc = _class_period_and_subsets(members, inner)
        classes.append(frozenset(members))
        periods.append(period)
        subsets.append(cyc)

    order = sorted(range(len(classes)), key=lambda i: min(classes[i]))
    classes = [classes[i] for i in order]
    periods = [periods[i] for i in order]
    subsets = [subsets[i] for i in order]
    return MarkovDecomposition(
        transient=frozenset(transient),
        ergodic_classes=tuple(classes),
        periods=tuple(periods),
        cyclic_subsets=tuple(subsets),
        period_lcm=math.lcm(*periods) if periods else 1,
    )


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the period-lcm certificate, with the failing condition."""

    passed: bool
    required_multiple: int
    period_lcm: int
    witness_class: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.passed


def period_lcm_certificate(dec: MarkovDecomposition, k: int) -> CertificateResult:
    """Check the necessary condition for a stable chain to separate counts
    mod ``2**(k+1)`` with bounded error.

    Passes iff the lcm ``D`` of the class periods is a multiple of
    ``2**(k+1)`` *and* some single class period is: then that class alone
    has at least ``2**(k+1)`` states.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    required = 1 << (k + 1)
    d = dec.period_lcm
    if d % required != 0:
        return CertificateResult(
            passed=False, required_multiple=required, period_lcm=d,
            reason=f"lcm of periods D = {d} is not a multiple of {required}",
        )
    for i, t in enumerate(dec.periods):
        if t % required == 0:
            return CertificateResult(
                passed=True, required_multiple=required, period_lcm=d,
                witness_class=i,
                reason=f"class {i} has period {t}, a multiple of {required}",
            )
    return CertificateResult(
        passed=False, required_multiple=required, period_lcm=d,
        reason=f"no single class period is a multiple of {required}",
    )


def limiting_distribution(m: np.ndarray, *, tol: float = 1e-10,
                          max_iterations: int = 1_000_000) -> np.ndarray:
    """Stationary vector of a regular chain by power iteration.

    Requires the whole matrix to form one ergodic class of period 1 (a
    regular chain); iterates ``v <- M v`` from the uniform vector until the
    sup-norm step falls below ``tol``.
    """
    m = _require_column_stochastic(m)
    dec = classify_states(m)
    if len(dec.ergodic_classes) != 1 or dec.transient or dec.periods[0] != 1:
        raise ValueError(
            "limiting distribution needs a regular chain "
            f"(got {len(dec.ergodic_classes)} classes, periods {dec.periods}, "
            f"{len(dec.transient)} transient states)"
        )
    v = np.full(m.shape[0], 1.0 / m.shape[0])
    for _ in range(max_iterations):
        nxt = m @ v
        if np.max(np.abs(nxt - v)) <= tol:
            return nxt
        v = nxt
    raise RuntimeError(f"power iteration did not converge in {max_iterations} steps")
