"""Evaluators and truth tables for the Boolean function families under study.

Each family comes as a :class:`FunctionSpec`: a (possibly partial) function
from n-bit strings to {0, 1, undefined}, with the parameter ``k`` where one
applies.  Undefined inputs (the promise setting) are reported as ``None``
by evaluators and as the code ``2`` in truth tables.  The sizes ``n`` and
``k`` must be integral: a bool, or a float such as 2.5, raises ValueError,
and 6.0 reads as 6.

The first six families count: each is its rule, the value at each number
of ones among the bits it counts (all ``n``, or the first ``k`` for
``NotOk``).  The rule is tabulated once as the count profile, and the
evaluator, the truth table and :meth:`FunctionSpec.count_profile` all read
that profile.

Families
--------
``PartialMOD``  1 when the number of ones is 0 mod ``2**(k+1)``, 0 when it
                is ``2**k`` mod ``2**(k+1)``, undefined otherwise.
``MOD``         1 iff the number of ones is divisible by ``k``.
``NotO``        0 iff ones and zeros balance exactly.
``NotOk``       0 iff the first ``k`` bits balance exactly (``k`` even).
``NotSQUARE``   0 iff ``#ones = (#zeros)**2``.
``NotPOWER``    0 iff ``#ones = 2**(#zeros)``.
``EQS``         marker/value equality on the first ``k`` bits (see below).
``NotEQS``      the inversion of ``EQS``.
``NotPAL``      1 iff the input is not a palindrome.

For ``EQS`` the odd positions of the first ``k`` bits are *markers* and the
even positions are *values*: value bit ``2i`` joins string ``alpha`` when
marker bit ``2i-1`` is 0 and joins ``beta`` otherwise; the function is 1
iff ``alpha == beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, IO, Iterable, Sequence

import numpy as np

from .core import Bits, cube_transpose, parse_bits, _integers

#: truth-table code for "function undefined here"
STAR = 2

FAMILY_NAMES = (
    "PartialMOD", "MOD", "NotO", "NotOk", "NotSQUARE", "NotPOWER",
    "EQS", "NotEQS", "NotPAL",
)


@dataclass(frozen=True)
class MarkerValueSplit:
    """Value bits routed left/right by their marker bits."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]


def split_marker_value(bits: Bits, k: int) -> MarkerValueSplit:
    """Split the first ``k`` bits into the marker-routed strings.

    Position ``2i-1`` (1-based; the odd positions) is the marker for value
    bit ``2i``: marker 0 routes the value bit to ``alpha``, marker 1 to
    ``beta``.  Bits past position ``k`` are ignored.
    """
    k = _integers("k", (k,))[0]
    x = parse_bits(bits)
    if k % 4 != 0 or k < 4:
        raise ValueError(f"k must be a positive multiple of 4, got {k}")
    if k > len(x):
        raise ValueError(f"k = {k} exceeds input length {len(x)}")
    alpha, beta = [], []
    for i in range(k // 2):
        marker, value = x[2 * i], x[2 * i + 1]
        (beta if marker else alpha).append(value)
    return MarkerValueSplit(tuple(alpha), tuple(beta))


@dataclass(frozen=True)
class FunctionSpec:
    """A total or partial Boolean function on ``n``-bit inputs.

    A counting family is its rule: ``_profile`` holds its value at each
    count of ones among the bits it counts, and its evaluator and table
    read it.
    """

    name: str
    n: int
    k: int | None
    _evaluate: Callable[[tuple[int, ...]], int | None] = field(repr=False)
    _build_table: Callable[[], np.ndarray] = field(repr=False)
    _profile: tuple[int | None, ...] | None = field(default=None, repr=False)

    def __call__(self, bits: Bits) -> int | None:
        return self._evaluate(parse_bits(bits, self.n))

    @property
    def total(self) -> bool:
        """No input is undefined: read off the count profile when there is
        one (every count in it is some input's), else off the table."""
        if self._profile is not None:
            return None not in self._profile
        return bool(np.all(self.truth_table() != STAR))

    def truth_table(self) -> np.ndarray:
        """Values over all ``2**n`` inputs as int8 codes {0, 1, STAR}.

        Index ``i`` is the input whose first bit is the most significant
        bit of ``i``.  The table is built once and cached.
        """
        return self._table

    @cached_property
    def _table(self) -> np.ndarray:
        table = self._build_table()
        table.setflags(write=False)
        return table

    def count_profile(self) -> dict[int, int | None] | None:
        """Outcome per count class for the counting families, else None.

        Keys run over 0..n ones for the families that count all ``n`` bits
        and over 0..k ones in the first ``k`` bits for ``NotOk``.
        """
        return None if self._profile is None else dict(enumerate(self._profile))


# ---------------------------------------------------------------------------
# table helpers
# ---------------------------------------------------------------------------

def _profile_codes(profile: Iterable[int | None]) -> np.ndarray:
    """A count profile's outcomes as int8 codes {0, 1, STAR}."""
    return np.array([STAR if v is None else v for v in profile], dtype=np.int8)


def _table_from_count_profile(n: int, profile: Sequence[int | None]) -> np.ndarray:
    # row s of t holds codes[s + popcount(x)] over the x seen so far: each
    # pass puts a new high bit in front, 0 from row s and 1 from row s + 1,
    # so after n passes the one row left is the table (no index array)
    t = _profile_codes(profile)[:, None]
    for _ in range(n):
        t = np.concatenate([t[:-1], t[1:]], axis=1)
    return t[0]


def _table_from_prefix_values(n: int, k: int, prefix_values: np.ndarray) -> np.ndarray:
    # value depends only on the first k bits = the top k bits of the index;
    # at k = n the prefix values are the table, and repeat would copy them
    return np.repeat(prefix_values, 1 << (n - k)) if k < n else prefix_values


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _counting(name: str, n: int, k: int | None, counted: int,
              value: Callable[[int], int | None]) -> FunctionSpec:
    """The member whose value is ``value(c)`` at ``c`` ones in its first ``counted`` bits."""
    profile = tuple(value(c) for c in range(counted + 1))
    return FunctionSpec(
        name=name, n=n, k=k,
        _evaluate=lambda x: profile[sum(x[:counted])],
        _build_table=lambda: _table_from_prefix_values(
            n, counted, _table_from_count_profile(counted, profile)),
        _profile=profile,
    )


def partial_mod(k: int, n: int) -> FunctionSpec:
    """1 on inputs with ``#ones = 0 mod 2**(k+1)``, 0 at ``2**k``, else undefined."""
    k, n = _integers("k and n", (k, n))
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _counting("PartialMOD", n, k, n, lambda m: {0: 1, 1 << k: 0}.get(m % (2 << k)))


def mod_count(k: int, n: int) -> FunctionSpec:
    """1 iff the number of ones is divisible by ``k`` (requires 1 < k <= n/2)."""
    k, n = _integers("k and n", (k, n))
    if not 1 < k <= n // 2:
        raise ValueError(f"MOD needs 1 < k <= n/2, got k = {k}, n = {n}")
    return _counting("MOD", n, k, n, lambda m: int(m % k == 0))


def not_o(n: int) -> FunctionSpec:
    """0 iff ones and zeros balance (constant 1 for odd n)."""
    n = _integers("n", (n,))[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    return _counting("NotO", n, None, n, lambda m: int(2 * m != n))


def not_o_prefix(k: int, n: int) -> FunctionSpec:
    """0 iff the first ``k`` bits hold exactly ``k/2`` ones (k even, 1 < k <= n)."""
    k, n = _integers("k and n", (k, n))
    if k % 2 != 0 or not 1 < k <= n:
        raise ValueError(f"NotOk needs even k with 1 < k <= n, got k = {k}, n = {n}")
    return _counting("NotOk", n, k, k, lambda m: int(2 * m != k))


def not_square(n: int) -> FunctionSpec:
    """0 iff ``#ones`` equals the square of ``#zeros``."""
    n = _integers("n", (n,))[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    return _counting("NotSQUARE", n, None, n, lambda m: int((n - m) ** 2 != m))


def not_power(n: int) -> FunctionSpec:
    """0 iff ``#ones`` equals ``2 ** (#zeros)``."""
    n = _integers("n", (n,))[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    return _counting("NotPOWER", n, None, n, lambda m: int(2 ** (n - m) != m))


def _eqs_prefix_values(k: int) -> np.ndarray:
    """EQS on every ``k``-bit prefix at once: each marker/value pair
    appends its value bit to the code of ``alpha`` or of ``beta`` and adds
    one to that string's length; equal strings have equal lengths and
    equal codes."""
    p = np.arange(1 << k, dtype=np.int32)
    a, b, la, lb = (np.zeros_like(p) for _ in range(4))
    for i in range(k // 2):
        marker = p >> (k - 1 - 2 * i) & 1
        value = p >> (k - 2 - 2 * i) & 1
        to_a = marker ^ 1
        a = a << to_a | value & to_a
        b = b << marker | value & marker
        la += to_a
        lb += marker
    return ((la == lb) & (a == b)).astype(np.int8)


def eqs(k: int, n: int) -> FunctionSpec:
    """Marker/value equality on the first ``k`` bits (k a multiple of 4, k <= n)."""
    k, n = _integers("k and n", (k, n))
    if k % 4 != 0 or not 4 <= k <= n:
        raise ValueError(f"EQS needs k a multiple of 4 with 4 <= k <= n, got k = {k}, n = {n}")

    def ev(x: tuple[int, ...]) -> int:
        s = split_marker_value(x, k)
        return int(s.alpha == s.beta)

    return FunctionSpec(
        name="EQS", n=n, k=k,
        _evaluate=ev,
        _build_table=lambda: _table_from_prefix_values(n, k, _eqs_prefix_values(k)),
    )


def not_eqs(k: int, n: int) -> FunctionSpec:
    """The inversion of :func:`eqs`."""
    base = eqs(k, n)
    return FunctionSpec(
        name="NotEQS", n=base.n, k=base.k,
        _evaluate=lambda x: 1 - base._evaluate(x),
        _build_table=lambda: (1 - base.truth_table()).astype(np.int8),
    )


def not_pal(n: int) -> FunctionSpec:
    """1 iff the input differs from its reversal."""
    n = _integers("n", (n,))[0]
    if n < 1:
        raise ValueError("n must be >= 1")

    def build() -> np.ndarray:
        # reversing the input reverses the axes of the table's (2,) * n cube
        idx = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        return (idx != cube_transpose(idx, tuple(reversed(range(n))))).astype(np.int8)

    return FunctionSpec(
        name="NotPAL", n=n, k=None,
        _evaluate=lambda x: int(tuple(x) != tuple(reversed(x))),
        _build_table=build,
    )


_FAMILIES_WITH_K = {
    "partialmod": partial_mod,
    "mod": mod_count,
    "notok": not_o_prefix,
    "eqs": eqs,
    "noteqs": not_eqs,
}

_FAMILIES_NO_K = {
    "noto": not_o,
    "notsquare": not_square,
    "notpower": not_power,
    "notpal": not_pal,
}


def make_function(name: str, k: int | None = None, n: int | None = None) -> FunctionSpec:
    """Build a family member by name (case-insensitive)."""
    if n is None:
        raise ValueError("n is required")
    key = name.replace("_", "").lower()
    if key in _FAMILIES_WITH_K:
        if k is None:
            raise ValueError(f"{name} requires the parameter k")
        return _FAMILIES_WITH_K[key](k, n)
    if key in _FAMILIES_NO_K:
        if k is not None:
            raise ValueError(f"{name} takes no parameter k")
        return _FAMILIES_NO_K[key](n)
    raise ValueError(f"unknown function family {name!r} (choose from {FAMILY_NAMES})")


# ---------------------------------------------------------------------------
# truth-table text format: one line per input, "<bitstring> <0|1|*>"
# ---------------------------------------------------------------------------

def format_truth_table(f: FunctionSpec) -> str:
    table = f.truth_table()
    rows = []
    for i in range(1 << f.n):
        v = int(table[i])
        rows.append(f"{format(i, f'0{f.n}b')} {'*' if v == STAR else v}")
    return "\n".join(rows) + "\n"


def from_table(values: np.ndarray, name: str = "table") -> FunctionSpec:
    """Wrap an explicit table (codes {0, 1, STAR}) as a FunctionSpec.

    Each entry must equal 0, 1 or STAR exactly; it is checked before the
    cast to int8, which would wrap 257 to 1 and truncate 1.7 to 1.  Complex
    arrays are refused whole, since their cast warns even on exact codes."""
    values = np.asarray(values)
    n = values.size.bit_length() - 1
    if values.ndim != 1 or n < 1 or values.size != 1 << n:
        raise ValueError(f"table shape {values.shape} is not (2**n,) for some n >= 1")
    if values.dtype.kind == "c" or not np.all((values == 0) | (values == 1) | (values == STAR)):
        raise ValueError("table entries must be 0, 1 or STAR")
    values = values.astype(np.int8)
    values.setflags(write=False)

    def ev(x: tuple[int, ...]) -> int | None:
        i = int("".join(str(b) for b in x), 2) if x else 0
        v = int(values[i])
        return None if v == STAR else v

    return FunctionSpec(
        name=name, n=n, k=None,
        _evaluate=ev, _build_table=lambda: values,
    )


def read_truth_table(stream: IO[str], name: str = "table") -> FunctionSpec:
    """Parse the text format back into a FunctionSpec (all 2**n lines required)."""
    entries: dict[int, int] = {}
    n = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or set(parts[0]) - {"0", "1"} or parts[1] not in ("0", "1", "*"):
            raise ValueError(f"line {lineno}: expected '<bitstring> <0|1|*>', got {line!r}")
        if n is None:
            n = len(parts[0])
        elif len(parts[0]) != n:
            raise ValueError(f"line {lineno}: bitstring length {len(parts[0])} != {n}")
        i = int(parts[0], 2)
        if i in entries:
            raise ValueError(f"line {lineno}: duplicate input {parts[0]}")
        entries[i] = STAR if parts[1] == "*" else int(parts[1])
    if n is None:
        raise ValueError("empty truth table")
    if len(entries) != 1 << n:
        raise ValueError(f"expected {1 << n} rows for n = {n}, got {len(entries)}")
    values = np.empty(1 << n, dtype=np.int8)
    for i, v in entries.items():
        values[i] = v
    return from_table(values, name=name)
