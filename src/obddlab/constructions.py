"""Explicit width-bounded programs for the function families.

Each builder returns an :class:`~obddlab.core.ObddProgram` whose width and
correctness can be checked independently (see ``obddlab.oracles`` and
``obddlab.core.computes``).  The fingerprinting builders track counts
modulo a basis of small primes whose product exceeds the value range, so
unanimous agreement of all residues certifies equality by the Chinese
Remainder Theorem.

The multi-level classical programs are written as labelled layers: one
list of hashable node labels per level (node ``x`` is the ``x``-th label)
and one step rule per kind of level, mapping a label and a symbol to the
successor label(s).  :func:`_layered` numbers the labels, builds one
transition array per distinct (source layer, target layer, rule), so
repeated levels share one array, and reads the widths off the layers.

Each builder but :func:`build_det_counter`, whose modulus no family states,
builds its family's spec (:mod:`obddlab.functions`) and reads ``k`` and
``n`` back from it: it refuses what the family refuses, with the family's
``ValueError``, so :func:`build_det_notpal` starts at ``n = 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import functions as fz
from .core import (
    ObddProgram,
    VariableOrder,
    level_map,
    level_unitary,
    natural_order,
    pairing_order,
    _integers,
    _relation,
    _stable_program,
)

__all__ = [
    "PrimeBasis",
    "primes_for_fingerprint",
    "build_quantum_partialmod",
    "build_det_partialmod",
    "build_det_mod",
    "build_det_counter",
    "build_nobdd_noto_fingerprint",
    "build_det_eqs",
    "build_nobdd_noteqs_fingerprint",
    "build_det_notpal",
    "build_quantum_nondet_noto",
    "quantum_noto_cutoff",
]


# ---------------------------------------------------------------------------
# prime bases for fingerprinting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeBasis:
    """Minimal ascending prime prefix whose product exceeds ``bound``."""

    primes: tuple[int, ...]
    bound: int
    odd_only: bool

    @property
    def product(self) -> int:
        return math.prod(self.primes)


def _iter_primes(odd_only: bool):
    if not odd_only:
        yield 2
    candidate = 3
    while True:
        if all(candidate % q for q in range(3, math.isqrt(candidate) + 1, 2)):
            yield candidate
        candidate += 2


def primes_for_fingerprint(bound: int, odd_only: bool = False) -> PrimeBasis:
    """The fewest leading primes (optionally skipping 2) with product > bound."""
    bound = _integers("bound", (bound,))[0]
    if bound < 1:
        raise ValueError("bound must be >= 1")
    primes: list[int] = []
    product = 1
    for p in _iter_primes(odd_only):
        primes.append(p)
        product *= p
        if product > bound:
            return PrimeBasis(tuple(primes), bound, odd_only)


# ---------------------------------------------------------------------------
# counting programs
# ---------------------------------------------------------------------------

def _rotation(angle: float) -> np.ndarray:
    """The unitary that turns the state plane by ``angle``."""
    return np.array([
        [math.cos(angle), -math.sin(angle)],
        [math.sin(angle), math.cos(angle)],
    ], dtype=complex)


def build_quantum_partialmod(k: int, n: int) -> ObddProgram:
    """Width-2 stable quantum ID program for ``PartialMOD(k, n)``, exact.

    Reading a 1 rotates the state plane by ``pi / 2**(k+1)``; zeros do
    nothing.  With ``m`` ones the acceptance probability is
    ``cos(m * theta) ** 2``: exactly 1 when ``m = 0 mod 2**(k+1)`` and
    exactly 0 when ``m = 2**k mod 2**(k+1)``.
    """
    f = fz.partial_mod(k, n)
    t = level_unitary(np.eye(2, dtype=complex), _rotation(math.pi / (1 << (f.k + 1))))
    return _stable_program("quantum", f.n, t, {0})


def build_det_counter(modulus: int, n: int) -> ObddProgram:
    """Stable ID counter mod ``modulus``: node = number of ones seen so far,
    accepting exactly residue 0."""
    modulus, n = _integers("modulus and n", (modulus, n))
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    on0 = tuple(range(modulus))
    on1 = tuple((s + 1) % modulus for s in range(modulus))
    return _stable_program("deterministic", n, level_map(on0, on1), {0})


def build_det_partialmod(k: int, n: int) -> ObddProgram:
    """Width ``2**(k+1)`` deterministic counter computing ``PartialMOD(k, n)``."""
    f = fz.partial_mod(k, n)
    return build_det_counter(1 << (f.k + 1), f.n)


def build_det_mod(k: int, n: int) -> ObddProgram:
    """Width-``k`` counter computing ``MOD(k, n)`` (requires 1 < k <= n/2)."""
    f = fz.mod_count(k, n)
    return build_det_counter(f.k, f.n)


# ---------------------------------------------------------------------------
# labelled layers
# ---------------------------------------------------------------------------

def _layered(kind: str, order: VariableOrder, layers, steps, accept) -> ObddProgram:
    """Assemble a classical program from labelled layers (module docstring).

    ``layers`` holds the ``n + 1`` label lists, the initial node being the
    first label of ``layers[0]``; ``steps[j-1](label, symbol)`` returns the
    successor label (deterministic) or labels (nondeterministic) of a node
    of level ``j - 1``; ``accept`` lists accepting labels of the last layer.
    """
    numbers: dict[int, dict] = {}
    for layer in layers:
        if id(layer) not in numbers:
            numbers[id(layer)] = {label: x for x, label in enumerate(layer)}
    arrays: dict[tuple, np.ndarray] = {}
    levels = []
    for src, dst, step in zip(layers, layers[1:], steps):
        key = (id(src), id(dst), step)
        if key not in arrays:
            at = numbers[id(dst)]
            if kind == "deterministic":
                arrays[key] = level_map(*(
                    [at[step(s, sym)] for s in src] for sym in (0, 1)))
            else:
                succ = [step(s, sym) for sym in (0, 1) for s in src]
                arrays[key] = _relation(list(map(len, succ)),
                                        [at[t] for targets in succ for t in targets], len(dst))
        levels.append(arrays[key])
    final = numbers[id(layers[-1])]
    return ObddProgram(kind=kind, order=order, widths=tuple(map(len, layers)),
                       levels=tuple(levels), initial=0,
                       accept=frozenset(final[label] for label in accept))


def _keep(label, sym):
    """Step rule of a deterministic idle level."""
    return label


def _keep_all(label, sym):
    """Step rule of a nondeterministic idle level."""
    return (label,)


# ---------------------------------------------------------------------------
# nondeterministic fingerprint programs
# ---------------------------------------------------------------------------

def build_nobdd_noto_fingerprint(k: int, n: int) -> ObddProgram:
    """Nondeterministic program for ``NotOk(k, n)`` via prime fingerprints.

    The first step guesses a prime ``p`` from the basis with product
    exceeding ``k``; that branch counts ones among the first ``k`` bits mod
    ``p`` and accepts iff the final residue differs from ``k/2 mod p``.
    Some branch accepts exactly when the prefix count differs from ``k/2``.
    Width after the fan-out level is the sum of the basis primes.
    """
    f = fz.not_o_prefix(k, n)
    k, n = f.k, f.n
    primes = primes_for_fingerprint(k).primes
    residues = [(p, c) for p in primes for c in range(p)]

    def count(state, sym):
        if state is None:  # fan-out: the first bit is counted into every branch
            return [(p, sym % p) for p in primes]
        p, c = state
        return [(p, (c + sym) % p)]

    return _layered(
        "nondeterministic", natural_order(n),
        [[None]] + [residues] * n,
        [count] * k + [_keep_all] * (n - k),
        [(p, c) for p, c in residues if c != (k // 2) % p],
    )


def build_nobdd_noteqs_fingerprint(k: int, n: int) -> ObddProgram:
    """Nondeterministic program for ``NotEQS(k, n)`` via weighted fingerprints.

    Each branch owns an odd prime ``p`` (basis product > ``2**(k/4)``) and
    tracks the triple (rolling residue, ``len(alpha)``, ``len(beta)``): when
    the j-th bit ``v`` joins ``alpha`` the residue gains ``v * 2**(-j)``
    mod ``p``, and symmetrically (negated) for ``beta``.  With equal final
    lengths the residue is zero iff the routed strings agree mod ``p``, so
    unanimous rejection certifies equality by CRT.  Once either routed
    string exceeds ``k/4`` bits the lengths can never balance again and the
    branch jumps to a shared always-accept node.  Odd levels double the
    state to remember the pending marker bit.
    """
    f = fz.not_eqs(k, n)
    k, n = f.k, f.n
    q = k // 4
    primes = primes_for_fingerprint(1 << q, odd_only=True).primes
    # weight of the j-th bit of a routed string, per prime
    weight = {p: [pow(2, -j, p) for j in range(q + 2)] for p in primes}
    lengths = range(q + 1)
    even = [(p, r, a, b) for p in primes for r in range(p) for a in lengths for b in lengths]
    even.append("ACC")                        # shared committed-accept node
    odd = [s + (m,) for s in even[:-1] for m in (0, 1)] + ["ACC"]

    def marker(state, m):
        if state is None:  # fan-out: every branch starts from empty strings
            return [(p, 0, 0, 0, m) for p in primes]
        return [state if state == "ACC" else state + (m,)]

    def value(state, v):
        if state == "ACC":
            return [state]
        p, r, a, b, m = state
        if m == 0:      # value bit joins alpha
            r, a = r + v * weight[p][a + 1], a + 1
        else:           # value bit joins beta
            r, b = r - v * weight[p][b + 1], b + 1
        return ["ACC" if max(a, b) > q else (p, r % p, a, b)]

    return _layered(
        "nondeterministic", natural_order(n),
        [[None]] + [odd, even] * (k // 2) + [even] * (n - k),
        [marker, value] * (k // 2) + [_keep_all] * (n - k),
        [s for s in even if s == "ACC" or s[1] != 0 or s[2] != s[3]],
    )


# ---------------------------------------------------------------------------
# deterministic comparison programs
# ---------------------------------------------------------------------------

def build_det_eqs(k: int, n: int) -> ObddProgram:
    """Deterministic program for ``EQS(k, n)`` with width ``8 * 2**(k/4) - 5``.

    Even levels remember the queue of routed value bits not yet compared
    (all from one of the two strings, at most ``k/4`` of them), plus an
    "equals" node for the empty queue and an absorbing reject node.  Odd
    levels double the live nodes to remember the pending marker bit.
    Reading a value bit either extends the queue (its string is ahead) or
    compares it against the queue head; queues longer than ``k/4`` reject.
    """
    f = fz.eqs(k, n)
    k, n = f.k, f.n
    q = k // 4
    strings = [c for length in range(1, q + 1) for c in itertools.product((0, 1), repeat=length)]
    even = [("A", c) for c in strings] + [("B", c) for c in strings] + [("EQ",), ("REJ",)]
    odd = (
        [(side, c, m) for side in "AB" for c in strings for m in (0, 1)]
        + [("EQ", 0), ("EQ", 1), ("REJ",)]
    )

    def marker(state, m):
        return state if state == ("REJ",) else state + (m,)

    def value(state, v):
        if state == ("REJ",):
            return state
        if state[0] == "EQ":
            return ("A" if state[1] == 0 else "B", (v,))
        side, c, m = state
        if (side == "A") == (m == 0):  # the value bit's string is ahead
            return ("REJ",) if len(c) == q else (side, c + (v,))
        if v != c[0]:
            return ("REJ",)
        return (side, c[1:]) if len(c) > 1 else ("EQ",)

    return _layered(
        "deterministic", natural_order(n),
        [[("EQ",)]] + [odd, even] * (k // 2) + [even] * (n - k),
        [marker, value] * (k // 2) + [_keep] * (n - k),
        [("EQ",)],
    )


def build_det_notpal(n: int) -> ObddProgram:
    """Width-3 deterministic program for ``NotPAL(n)`` under the pairing order.

    Mirrored positions are read back to back: the first bit of a pair is
    remembered (two nodes) and compared against the second; any mismatch
    moves to an absorbing accept node.  For odd ``n`` the middle bit is
    read last and ignored, so at ``n = 1``, with no pair, the width is 2.
    """
    n = fz.not_pal(n).n

    def open_pair(state, b):
        return state if state == "ACC" else f"S{b}"

    def close_pair(state, b):
        return "EQ" if state == f"S{b}" else "ACC"

    odd, even = ["S0", "S1", "ACC"], ["EQ", "ACC"]
    return _layered(
        "deterministic", pairing_order(n),
        [["EQ"]] + [odd, even] * (n // 2) + [even] * (n % 2),
        [open_pair, close_pair] * (n // 2) + [_keep] * (n % 2),
        ["ACC"],
    )


# ---------------------------------------------------------------------------
# quantum nondeterminism
# ---------------------------------------------------------------------------

def quantum_noto_cutoff(n: int) -> float:
    """Acceptance cutoff separating zero from nonzero for
    :func:`build_quantum_nondet_noto`: the least nonzero acceptance
    probability is ``sin(pi / (n+1)) ** 2 >= 4 / (n+1)**2``, twice this."""
    return 2.0 / (n + 1) ** 2


def build_quantum_nondet_noto(n: int) -> ObddProgram:
    """Width-2 stable quantum program computing ``NotO(n)`` under
    nondeterministic acceptance.

    Ones rotate by ``+pi/(n+1)`` and zeros by ``-pi/(n+1)``, so the final
    angle is proportional to ``#ones - #zeros`` and the accepting amplitude
    ``sin((#ones - #zeros) * pi/(n+1))`` vanishes exactly on balanced
    inputs.  Judge with cutoff :func:`quantum_noto_cutoff`.
    """
    n = fz.not_o(n).n
    phi = math.pi / (n + 1)
    t = level_unitary(_rotation(-phi), _rotation(phi))
    return _stable_program("quantum", n, t, {1})
