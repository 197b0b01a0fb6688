"""Explicit width-bounded programs for the function families.

Each builder returns an :class:`~obddlab.core.ObddProgram` whose width and
correctness can be checked independently (see ``obddlab.oracles`` and
``obddlab.core.computes``).  The fingerprinting builders track counts
modulo a basis of small primes whose product exceeds the value range, so
unanimous agreement of all residues certifies equality by the Chinese
Remainder Theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ObddProgram,
    VariableOrder,
    level_map,
    level_relation,
    level_unitary,
    natural_order,
    pairing_order,
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

def _stable_program(kind, n, transition, width, initial, accept) -> ObddProgram:
    return ObddProgram(
        kind=kind,
        order=natural_order(n),
        widths=(width,) * (n + 1),
        levels=(transition,) * n,
        initial=initial,
        accept=frozenset(accept),
        stable=True,
    )


def build_quantum_partialmod(k: int, n: int) -> ObddProgram:
    """Width-2 stable quantum ID program for ``PartialMOD(k, n)``, exact.

    Reading a 1 rotates the state plane by ``pi / 2**(k+1)``; zeros do
    nothing.  With ``m`` ones the acceptance probability is
    ``cos(m * theta) ** 2``: exactly 1 when ``m = 0 mod 2**(k+1)`` and
    exactly 0 when ``m = 2**k mod 2**(k+1)``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    theta = math.pi / (1 << (k + 1))
    rot = np.array([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ], dtype=complex)
    t = level_unitary(np.eye(2, dtype=complex), rot)
    return _stable_program("quantum", n, t, 2, 0, {0})


def build_det_counter(modulus: int, n: int) -> ObddProgram:
    """Stable ID counter mod ``modulus``: node = number of ones seen so far,
    accepting exactly residue 0."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    on0 = tuple(range(modulus))
    on1 = tuple((s + 1) % modulus for s in range(modulus))
    return _stable_program("deterministic", n, level_map(on0, on1), modulus, 0, {0})


def build_det_partialmod(k: int, n: int) -> ObddProgram:
    """Width ``2**(k+1)`` deterministic counter computing ``PartialMOD(k, n)``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return build_det_counter(1 << (k + 1), n)


def build_det_mod(k: int, n: int) -> ObddProgram:
    """Width-``k`` counter computing ``MOD(k, n)`` (requires 1 < k <= n/2)."""
    if not 1 < k <= n // 2:
        raise ValueError(f"MOD construction needs 1 < k <= n/2, got k = {k}, n = {n}")
    return build_det_counter(k, n)


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
    if k % 2 != 0 or not 1 < k <= n:
        raise ValueError(f"needs even k with 1 < k <= n, got k = {k}, n = {n}")
    basis = primes_for_fingerprint(k)
    primes = basis.primes
    offsets = np.concatenate(([0], np.cumsum(primes))).tolist()
    width = offsets[-1]

    def node(branch: int, residue: int) -> int:
        return offsets[branch] + residue

    # fan-out: the first tested bit is already counted into every branch
    first = level_relation(
        [[node(i, 0) for i in range(len(primes))]],
        [[node(i, 1 % p) for i, p in enumerate(primes)]],
        width,
    )
    count = level_relation(
        [[node(i, c)] for i, p in enumerate(primes) for c in range(p)],
        [[node(i, (c + 1) % p)] for i, p in enumerate(primes) for c in range(p)],
        width,
    )
    idle_rows = [[s] for s in range(width)]
    idle = level_relation(idle_rows, idle_rows, width)

    levels = (first,) + (count,) * (k - 1) + (idle,) * (n - k)
    accept = frozenset(
        node(i, c)
        for i, p in enumerate(primes)
        for c in range(p)
        if c != (k // 2) % p
    )
    return ObddProgram(
        kind="nondeterministic",
        order=natural_order(n),
        widths=(1,) + (width,) * n,
        levels=levels,
        initial=0,
        accept=accept,
        stable=False,
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
    if k % 4 != 0 or not 4 <= k <= n:
        raise ValueError(f"needs k a multiple of 4 with 4 <= k <= n, got k = {k}, n = {n}")
    q = k // 4
    basis = primes_for_fingerprint(1 << q, odd_only=True)
    primes = basis.primes

    # inverse powers of two per prime: weight of the j-th bit of a routed string
    inv_pow = [
        [pow(pow(2, -1, p), j, p) for j in range(q + 1)]
        for p in primes
    ]

    even_nodes: list[tuple] = [
        (i, r, a, b)
        for i, p in enumerate(primes)
        for r in range(p)
        for a in range(q + 1)
        for b in range(q + 1)
    ]
    overflow_even = len(even_nodes)           # shared committed-accept node
    even_index = {s: x for x, s in enumerate(even_nodes)}
    odd_nodes = [s + (m,) for s in even_nodes for m in (0, 1)]
    overflow_odd = len(odd_nodes)
    odd_index = {s: x for x, s in enumerate(odd_nodes)}

    even_width = len(even_nodes) + 1
    odd_width = len(odd_nodes) + 1

    def read_marker() -> np.ndarray:
        rows = [[], []]
        for sym in (0, 1):
            rows[sym] = [[odd_index[s + (sym,)]] for s in even_nodes] + [[overflow_odd]]
        return level_relation(rows[0], rows[1], odd_width)

    def read_value() -> np.ndarray:
        rows = [[], []]
        for sym in (0, 1):
            out = []
            for (i, r, a, b, m) in odd_nodes:
                p = primes[i]
                if m == 0:  # value bit joins alpha
                    if a + 1 > q:
                        out.append([overflow_even])
                    else:
                        out.append([even_index[(i, (r + sym * inv_pow[i][a + 1]) % p, a + 1, b)]])
                else:       # value bit joins beta
                    if b + 1 > q:
                        out.append([overflow_even])
                    else:
                        out.append([even_index[(i, (r - sym * inv_pow[i][b + 1]) % p, a, b + 1)]])
            out.append([overflow_even])
            rows[sym] = out
        return level_relation(rows[0], rows[1], even_width)

    first = level_relation(
        [[odd_index[(i, 0, 0, 0, 0)] for i in range(len(primes))]],
        [[odd_index[(i, 0, 0, 0, 1)] for i in range(len(primes))]],
        odd_width,
    )
    marker = read_marker()
    value = read_value()
    idle_rows = [[s] for s in range(even_width)]
    idle = level_relation(idle_rows, idle_rows, even_width)

    levels = [first]
    for j in range(2, k + 1):
        levels.append(value if j % 2 == 0 else marker)
    levels.extend([idle] * (n - k))

    widths = [1]
    for j in range(1, k + 1):
        widths.append(odd_width if j % 2 == 1 else even_width)
    widths.extend([even_width] * (n - k))

    accept = frozenset(
        even_index[(i, r, a, b)]
        for (i, r, a, b) in even_nodes
        if r != 0 or a != b
    ) | {overflow_even}
    return ObddProgram(
        kind="nondeterministic",
        order=natural_order(n),
        widths=tuple(widths),
        levels=tuple(levels),
        initial=0,
        accept=accept,
        stable=False,
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
    if k % 4 != 0 or not 4 <= k <= n:
        raise ValueError(f"needs k a multiple of 4 with 4 <= k <= n, got k = {k}, n = {n}")
    q = k // 4
    strings = [
        tuple((c >> (length - 1 - j)) & 1 for j in range(length))
        for length in range(1, q + 1)
        for c in range(1 << length)
    ]
    even_nodes: list[tuple] = (
        [("A", c) for c in strings] + [("B", c) for c in strings] + [("EQ",), ("REJ",)]
    )
    even_index = {s: x for x, s in enumerate(even_nodes)}
    odd_nodes = (
        [(side, c, m) for side in "AB" for c in strings for m in (0, 1)]
        + [("EQ", m) for m in (0, 1)] + [("REJ",)]
    )
    odd_index = {s: x for x, s in enumerate(odd_nodes)}

    def marker_target(state: tuple, m: int) -> int:
        if state[0] == "REJ":
            return odd_index[("REJ",)]
        if state[0] == "EQ":
            return odd_index[("EQ", m)]
        side, c = state
        return odd_index[(side, c, m)]

    def value_target(state: tuple, v: int) -> int:
        if state[0] == "REJ":
            return even_index[("REJ",)]
        if state[0] == "EQ":
            m = state[1]
            side = "A" if m == 0 else "B"
            return even_index[(side, (v,))]
        side, c, m = state
        extends = (side == "A" and m == 0) or (side == "B" and m == 1)
        if extends:
            if len(c) + 1 > q:
                return even_index[("REJ",)]
            return even_index[(side, c + (v,))]
        if v != c[0]:
            return even_index[("REJ",)]
        rest = c[1:]
        return even_index[("EQ",)] if not rest else even_index[(side, rest)]

    first = level_map(
        [marker_target(("EQ",), 0)],
        [marker_target(("EQ",), 1)],
    )
    marker = level_map(
        [marker_target(s, 0) for s in even_nodes],
        [marker_target(s, 1) for s in even_nodes],
    )
    value = level_map(
        [value_target(s, 0) for s in odd_nodes],
        [value_target(s, 1) for s in odd_nodes],
    )
    idle = level_map(range(len(even_nodes)), range(len(even_nodes)))

    levels = [first]
    for j in range(2, k + 1):
        levels.append(value if j % 2 == 0 else marker)
    levels.extend([idle] * (n - k))

    widths = [1]
    for j in range(1, k + 1):
        widths.append(len(odd_nodes) if j % 2 == 1 else len(even_nodes))
    widths.extend([len(even_nodes)] * (n - k))

    return ObddProgram(
        kind="deterministic",
        order=natural_order(n),
        widths=tuple(widths),
        levels=tuple(levels),
        initial=0,
        accept=frozenset({even_index[("EQ",)]}),
        stable=False,
    )


def build_det_notpal(n: int) -> ObddProgram:
    """Width-3 deterministic program for ``NotPAL(n)`` under the pairing order.

    Mirrored positions are read back to back: the first bit of a pair is
    remembered (two nodes) and compared against the second; any mismatch
    moves to an absorbing accept node.  For odd ``n`` the middle bit is
    read last and ignored.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    odd_nodes = ["S0", "S1", "ACC"]            # just saw the first bit of a pair
    even_nodes = ["EQ", "ACC"]                 # pair resolved
    oi = {s: x for x, s in enumerate(odd_nodes)}
    ei = {s: x for x, s in enumerate(even_nodes)}

    first = level_map([oi["S0"]], [oi["S1"]])
    open_pair = level_map(
        [oi["S0"], oi["ACC"]],
        [oi["S1"], oi["ACC"]],
    )
    close_pair = level_map(
        [ei["EQ"], ei["ACC"], ei["ACC"]],      # S0 matched by 0 / S1 mismatched / ACC
        [ei["ACC"], ei["EQ"], ei["ACC"]],
    )
    middle = level_map([ei["EQ"], ei["ACC"]], [ei["EQ"], ei["ACC"]])

    pairs = n // 2
    levels = [first, close_pair]
    for _ in range(pairs - 1):
        levels.extend([open_pair, close_pair])
    if n % 2 == 1:
        levels.append(middle)

    widths = [1]
    for _ in range(pairs):
        widths.extend([3, 2])
    if n % 2 == 1:
        widths.append(2)

    return ObddProgram(
        kind="deterministic",
        order=pairing_order(n),
        widths=tuple(widths),
        levels=tuple(levels),
        initial=0,
        accept=frozenset({ei["ACC"]}),
        stable=False,
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
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = math.pi / (n + 1)

    def rotation(angle: float) -> np.ndarray:
        return np.array([
            [math.cos(angle), -math.sin(angle)],
            [math.sin(angle), math.cos(angle)],
        ], dtype=complex)

    t = level_unitary(rotation(-phi), rotation(phi))
    return _stable_program("quantum", n, t, 2, 0, {1})
