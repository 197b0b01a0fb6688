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
that cannot separate the two residue classes.  Then some single class
period is divisible by ``2**(k+1)`` (powers of two in an lcm come from one
term), and the certificate is one search for that witness class.

Boolean matrix products serve only reachability, which splits the states
into classes.  Periods and cyclic subsets come from the structure of
each class: BFS depths and gcds over its edges, never from matrix powers of
the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STRUCT_TOL, _integers

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

    @property
    def period_lcm(self) -> int:
        return math.lcm(*self.periods)

    @property
    def states(self) -> int:
        return len(self.transient) + sum(len(c) for c in self.ergodic_classes)


def _require_column_stochastic(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    bad = np.flatnonzero(~np.isfinite(m).all(axis=0))
    if bad.size:
        raise ValueError(f"column {int(bad[0])} has a non-finite entry")
    if np.any(m < -STRUCT_TOL):
        raise ValueError("matrix has negative entries")
    sums = m.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > STRUCT_TOL)
    if bad.size:
        raise ValueError(f"column {int(bad[0])} sums to {sums[bad[0]]:.6g}, not 1")
    return m


def _class_period_and_subsets(edges: np.ndarray, members: np.ndarray):
    """Period (gcd of closed-walk lengths) and rotation-ordered cyclic
    subsets of a closed class, from BFS depths below its least member."""
    src, dst = np.nonzero(edges[members])  # the class is closed: no edge leaves it
    src, dst = members[src].tolist(), dst.tolist()
    succ: dict[int, list[int]] = {u: [] for u in members.tolist()}
    for u, v in zip(src, dst):
        succ[u].append(v)
    root = int(members[0])
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    period = math.gcd(*(depth[u] + 1 - depth[v] for u, v in zip(src, dst)))
    subsets: list[set[int]] = [set() for _ in range(period)]
    for u, du in depth.items():
        subsets[du % period].add(u)
    return period, tuple(frozenset(s) for s in subsets)


def classify_states(m: np.ndarray) -> MarkovDecomposition:
    """Decompose a column-stochastic matrix into transient states and
    ergodic classes with periods and cyclic subsets.

    Edges are entries above :data:`EDGE_TOL` (structural zeros only;
    rounding noise stays below it).  A state is ergodic iff every state it
    reaches reaches it back, and its class is the set of states it
    reaches.  Reachability is the reflexive-transitive closure of the edges,
    found by repeated squaring of a 0/1 matrix, so a chain of ``d`` states
    costs O(d**3 log d).
    """
    m = _require_column_stochastic(m)
    edges = m.T > EDGE_TOL  # edges[s, t]: one step goes from state s to state t
    reach = edges | np.eye(len(m), dtype=bool)
    # after i squarings reach holds every walk of length <= 2**i; float32
    # counts of at most d walks are exact for d < 2**24
    for _ in range((len(m) - 1).bit_length()):
        r = reach.astype(np.float32)
        closure = (r @ r) > 0
        if np.array_equal(closure, reach):
            break
        reach = closure
    ergodic = ~np.any(reach & ~reach.T, axis=1)
    # an ergodic state reaches exactly its class: it is the class's least
    # member iff it reaches no lower state
    roots = np.flatnonzero(ergodic & ~np.tril(reach, -1).any(axis=1))
    classes: list[frozenset[int]] = []
    periods: list[int] = []
    subsets: list[tuple[frozenset[int], ...]] = []
    for root in roots.tolist():
        members = np.flatnonzero(reach[root])
        period, cyc = _class_period_and_subsets(edges, members)
        classes.append(frozenset(members.tolist()))
        periods.append(period)
        subsets.append(cyc)
    return MarkovDecomposition(
        transient=frozenset(np.flatnonzero(~ergodic).tolist()),
        ergodic_classes=tuple(classes),
        periods=tuple(periods),
        cyclic_subsets=tuple(subsets),
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

    One search for the witness, the first class whose period is a multiple
    of ``2**(k+1)``; that class alone has at least ``2**(k+1)`` states.  A
    power of two divides the lcm ``D`` of the periods only if it divides
    one of them, so the search fails exactly when ``D`` is not a multiple.
    """
    k = _integers("k", (k,))[0]
    if k < 0:
        raise ValueError("k must be >= 0")
    required = 1 << (k + 1)
    d = dec.period_lcm
    witness = next((i for i, t in enumerate(dec.periods) if t % required == 0), None)
    if witness is None:
        return CertificateResult(
            passed=False, required_multiple=required, period_lcm=d,
            reason=f"lcm of periods D = {d} is not a multiple of {required}",
        )
    return CertificateResult(
        passed=True, required_multiple=required, period_lcm=d, witness_class=witness,
        reason=f"class {witness} has period {dec.periods[witness]}, a multiple of {required}",
    )


def limiting_distribution(m: np.ndarray) -> np.ndarray:
    """Stationary vector of a regular chain.

    Requires the whole matrix to form one ergodic class of period 1 (a
    regular chain), whose stationary vector is the unique solution of
    ``M v = v`` with ``sum(v) = 1``; that system is solved by least squares.
    """
    m = _require_column_stochastic(m)
    dec = classify_states(m)
    if len(dec.ergodic_classes) != 1 or dec.transient or dec.periods[0] != 1:
        raise ValueError(
            "limiting distribution needs a regular chain "
            f"(got {len(dec.ergodic_classes)} classes, periods {dec.periods}, "
            f"{len(dec.transient)} transient states)"
        )
    d = len(m)
    system = np.vstack([m - np.eye(d), np.ones(d)])
    target = np.zeros(d + 1)
    target[-1] = 1.0
    return np.linalg.lstsq(system, target)[0]
