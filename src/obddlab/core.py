"""Data model and execution semantics for width-bounded ordered binary
decision diagrams (OBDDs) in four flavors.

A program is a layered graph: level ``j`` (for ``j = 1..n``) tests one input
bit and maps the ``w[j-1]`` nodes of level ``j-1`` to the ``w[j]`` nodes of
level ``j``.  Which bit is tested at step ``j`` is given by a variable order
``perm``; the bit tested at step ``j`` is ``x[perm[j-1]]`` (0-based
positions).  Each level is one read-only array that holds the transitions
of both symbols, and its dtype gives the flavor:

``deterministic``
    ``int[2, w_in]``: ``t[sym, s]`` is the one successor of node ``s``.
``nondeterministic``
    ``bool[2, w_out, w_in]``: ``t[sym, u, s]`` says that node ``s`` may
    move to node ``u``; the input is accepted iff some path from the
    initial node ends in an accepting node.
``probabilistic``
    ``float[2, w_out, w_in]``: column-stochastic matrices applied to a
    probability distribution over nodes; acceptance probability is the
    final mass on the accepting set.
``quantum``
    ``complex[2, w_out, w_in]``: unitaries applied to an amplitude vector;
    acceptance probability is the squared final amplitude mass on the
    accepting set.

Nodes are numbered ``0..w[j]-1`` within each level.  Matrices act as
``v_next = M @ v`` with ``M[u, s]`` the weight of the move from source node
``s`` to target node ``u`` (columns are sources).

Every level array is stored source-major: its source axis (the last) is
outermost in memory, then the symbol axis, so that the transitions of a
node on both symbols lie side by side.  It is also read-only: a program
copies a writeable array it is given once, so the caller cannot change it.

One kernel for batches, one walk for single inputs.  The private kernel
:func:`_advance` moves a batch of states through one level on both
symbols; a state is a node index, a reachable-set row or a state-vector
row.  :func:`acceptance_table` (and with it :func:`computes`) runs it on
all ``2**(n // 2)`` prefixes by prefix doubling and meets them with the
values of the middle level's nodes on all suffixes, which one backward
pass over the same source-major rows builds; :func:`reachable_widths`
runs it on reachable sets and the subset construction on subset rows,
while validation reads the stored rows, which are the nodes' images.
:func:`simulate` and the traces follow one input's path instead, through
:func:`_walk`: each distinct level object is compiled once per program,
on first use, into a Python successor list (deterministic), one target
bitmask per (symbol, node) (nondeterministic; a reachable set is a Python
int) or a pair of matrix views (the vector kinds), and each step reads
only the symbol's part.
The compiled levels are memoized on the immutable program; a distinct
level costs two lists of ``w_in`` Python ints (successors, or masks of
``w_out`` bits), or two views that copy nothing.  The stable search of
:mod:`obddlab.oracles` steps bit-planes, the reachable sets of 64
candidate programs per machine word, with its own AND and OR, not
through either.

A program is *stable* when every level carries the identical transition
pair, and *ID* when its order is the natural one; a stable ID program of
fixed width behaves like a realtime finite automaton.  Both are read off
the program, as ``p.stable`` and ``p.order.is_id``; neither is set.

All program objects are immutable and valid (:class:`ObddProgram` refuses
an invalid one when it is built); every operation here is a pure function
of its inputs.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

#: absolute tolerance for structural numeric checks (stochastic columns,
#: unitarity, state-vector normalization)
STRUCT_TOL = 1e-9

#: absolute tolerance when deciding that an acceptance probability equals
#: 0 or 1 in ``exact`` mode (double-precision rotations accumulate error)
EXACT_TOL = 1e-6

#: hard cap on exhaustive input enumeration in :func:`computes`
ENUMERATION_CAP = 24

#: most subset nodes :func:`nobdd_to_obdd_subset` builds at one level
_SUBSET_CAP = 1 << 16

Bits = Union[str, Sequence[int]]


class ObddError(Exception):
    """Base class for errors raised by this package."""


class InvalidProgramError(ObddError, ValueError):
    """A program failed validation."""


class ModeKindMismatchError(ObddError, ValueError):
    """An acceptance mode was combined with a program kind it cannot judge."""


class CapExceededError(ObddError, RuntimeError):
    """A feasibility cap (enumeration size, subset blow-up, ...) was hit."""


class NotStableError(ObddError, ValueError):
    """A stable-only operation was applied to a non-stable program."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

KINDS = ("deterministic", "nondeterministic", "probabilistic", "quantum")

#: dtype of a batch of state rows (deterministic states are node indices)
_STATE_DTYPES = {
    "nondeterministic": bool,
    "probabilistic": float,
    "quantum": complex,
}

#: numpy dtype code of each kind's transition arrays, and what validation
#: messages call a transition of that code
_ARRAY_FORMS = {
    "i": ("deterministic", "map"),
    "b": ("nondeterministic", "relation"),
    "f": ("probabilistic", "stochastic"),
    "c": ("quantum", "unitary"),
}


@dataclass(frozen=True)
class VariableOrder:
    """Order in which the n input positions are tested.

    ``perm[j]`` is the 0-based input position tested at step ``j+1``.
    """

    n: int
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integers("n", (self.n,))[0])
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "perm", _integers("perm", self.perm))
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{self.n - 1}")

    @property
    def is_id(self) -> bool:
        """True for the natural order (an ID program tests bits left to right)."""
        return self.perm == tuple(range(self.n))


def natural_order(n: int) -> VariableOrder:
    """The identity order (0, 1, ..., n-1)."""
    return VariableOrder(n, tuple(range(n)))


def pairing_order(n: int) -> VariableOrder:
    """The outside-in order (0, n-1, 1, n-2, ...) that pairs mirrored positions."""
    perm = []
    lo, hi = 0, n - 1
    while lo <= hi:
        perm.append(lo)
        if hi != lo:
            perm.append(hi)
        lo, hi = lo + 1, hi - 1
    return VariableOrder(n, tuple(perm))


def _source_major(t: np.ndarray) -> np.ndarray:
    """``t`` if it is read-only and source-major, else a read-only copy of
    it whose source axis (the last) is outermost in memory and its symbol
    axis next (module docstring).  A writeable array is always copied, so
    that a caller who keeps writing to it cannot change a program.  A
    read-only view of an array the caller still writes is taken as is."""
    front = t.transpose(t.ndim - 1, *range(t.ndim - 1))
    if front.flags.c_contiguous and not t.flags.writeable:
        return t
    a = front.copy().transpose(*range(1, t.ndim), 0)
    a.setflags(write=False)
    return a


def _pair(on0, on1, dtype) -> np.ndarray:
    a, b = np.asarray(on0, dtype=dtype), np.asarray(on1, dtype=dtype)
    if a.shape != b.shape:
        raise ValueError(f"symbol transitions disagree in shape: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"symbol transitions must be matrices, got shape {a.shape}")
    t = np.empty((a.shape[1], 2, a.shape[0]), dtype=dtype)  # source-major
    t[:, 0], t[:, 1] = a.T, b.T
    t.setflags(write=False)
    return t.transpose(1, 2, 0)


def _first_non_integral(values: Sequence) -> int | None:
    """Index of the first entry of ``values`` that is a bool or is not
    equal to its ``int`` cast (a fraction, a string), or None; a whole
    float such as ``2.0`` is integral.  Plain ints cost one type scan."""
    if set(map(type, values)) <= {int}:
        return None
    for i, u in enumerate(values):
        try:
            if int(u) == u and not isinstance(u, (bool, np.bool_)):
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        return i
    return None


def _integers(what: str, values: Iterable) -> tuple[int, ...]:
    """``values`` as ints; ValueError naming ``what`` if one is not
    integral (:func:`_first_non_integral`)."""
    values = tuple(values)
    if _first_non_integral(values) is not None:
        raise ValueError(f"{what} must be integral, got {', '.join(map(repr, values))}")
    return tuple(map(int, values))


def level_map(on0: Iterable[int], on1: Iterable[int]) -> np.ndarray:
    """Deterministic level ``int[2, w_in]`` from two source-indexed target
    lists; a target that is not integral raises ValueError naming the
    first."""
    rows = list(on0), list(on1)
    i = _first_non_integral(rows[0] + rows[1])
    if i is not None:
        sym, s = (0, i) if i < len(rows[0]) else (1, i - len(rows[0]))
        raise ValueError(f"symbol {sym}: node {s} maps to {rows[sym][s]!r}, not an integer")
    if len(rows[0]) != len(rows[1]):
        raise ValueError(f"symbol transitions disagree in shape: "
                         f"{(len(rows[0]),)} vs {(len(rows[1]),)}")
    t = np.array([list(map(int, r)) for r in rows], dtype=np.intp, order="F")  # source-major
    t.setflags(write=False)
    return t


def level_relation(on0: Iterable[Iterable[int]], on1: Iterable[Iterable[int]],
                   width: int) -> np.ndarray:
    """Nondeterministic level ``bool[2, width, w_in]`` from two source-indexed
    target-set lists; ``width`` is the size of the target level.  A target
    that is not integral, or not in ``0..width - 1``, raises ValueError
    naming the first in (symbol, source, listed) order."""
    width = _integers("width", (width,))[0]
    per_symbol = list(map(list, on0)), list(map(list, on1))
    if len(per_symbol[0]) != len(per_symbol[1]):
        raise ValueError("symbol transitions disagree in source dimension")
    rows = per_symbol[0] + per_symbol[1]
    counts = list(map(len, rows))
    targets = list(itertools.chain.from_iterable(rows))
    i = _first_non_integral(targets)
    if i is not None:
        sym, s = _row_of(counts, i)
        raise ValueError(f"symbol {sym}: node {s} maps to {targets[i]!r}, not an integer")
    return _relation(counts, list(map(int, targets)), width)


def _row_of(counts: Sequence[int], i: int) -> tuple[int, int]:
    """(symbol, source) of entry ``i`` of the flat rows with ``counts``
    (:func:`_relation`)."""
    return divmod(bisect.bisect_right(list(itertools.accumulate(counts)), i), len(counts) // 2)


def _relation(counts: Sequence[int], targets: Sequence[int], width: int) -> np.ndarray:
    """Nondeterministic level ``bool[2, width, w_in]`` from flat rows:
    ``targets`` lists the integer targets of every (symbol, source) pair in
    that order, ``counts[sym * w_in + s]`` of them for node ``s`` on
    ``sym``.  One vectorized range check and one indexed store set all the
    edges; a target outside ``0..width - 1`` raises ValueError naming the
    first."""
    w_in = len(counts) // 2
    rows = np.repeat(np.arange(2 * w_in), counts)  # row sym * w_in + s holds (sym, s)
    try:
        # raises unless every target is in 0..width - 1
        at = np.ravel_multi_index((rows, np.asarray(targets, dtype=np.intp)), (2 * w_in, width))
    except (OverflowError, ValueError):
        i = next((i for i, u in enumerate(targets) if not 0 <= u < width), None)
        if i is None:
            raise
        sym, s = _row_of(counts, i)
        raise ValueError(
            f"symbol {sym}: node {s} maps to {targets[i]} outside 0..{width - 1}") from None
    t = np.zeros((w_in, 2, width), dtype=bool)  # source-major
    t.transpose(1, 0, 2).flat[at] = True  # the flat index runs over (sym, s, u)
    t.setflags(write=False)
    return t.transpose(1, 2, 0)


def level_stochastic(on0, on1) -> np.ndarray:
    """Probabilistic level ``float[2, w_out, w_in]`` from two column-stochastic matrices."""
    return _pair(on0, on1, float)


def level_unitary(on0, on1) -> np.ndarray:
    """Quantum level ``complex[2, w, w]`` from two unitary matrices."""
    return _pair(on0, on1, complex)


@dataclass(frozen=True, eq=False)
class ObddProgram:
    """A width-bounded layered program.

    Parameters
    ----------
    kind : str
        One of ``deterministic``, ``nondeterministic``, ``probabilistic``,
        ``quantum``.
    order : VariableOrder
        Which input position each step tests.
    widths : tuple of int
        ``n + 1`` level sizes ``w[0] .. w[n]`` (ragged levels are allowed;
        the paper-style single width is ``max(widths)``).
    levels : tuple of np.ndarray
        ``n`` transition arrays (module docstring); ``levels[j-1]`` maps
        level ``j-1`` to level ``j``.
    initial : int
        Start node in level 0 (a basis state for the vector kinds).
    accept : frozenset of int
        Accepting nodes in the final level.

    :attr:`stable` is not a parameter: it is read off the widths and the
    levels.  A program that fails :func:`validate_program` raises
    :class:`InvalidProgramError`, its violations joined by ``"; "``.
    """

    kind: str
    order: VariableOrder
    widths: tuple[int, ...]
    levels: tuple[np.ndarray, ...]
    initial: int
    accept: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "widths", _integers("level widths", self.widths))
        object.__setattr__(self, "accept", frozenset(_integers("accepting nodes", self.accept)))
        object.__setattr__(self, "initial", _integers("initial node", (self.initial,))[0])
        # levels are kept source-major (module docstring), which the
        # kernel reads without a copy, and read-only, so that the memos
        # below stay true; each distinct object is converted once, so a
        # stable program still repeats one array
        arrays = {}
        for t in self.levels:
            if id(t) not in arrays:
                a = np.asarray(t)
                arrays[id(t)] = _source_major(a) if a.ndim in (2, 3) else a
        object.__setattr__(self, "levels", tuple(map(arrays.__getitem__, map(id, self.levels))))
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if violations := validate_program(self).violations:
            raise InvalidProgramError("; ".join(violations))

    @property
    def n(self) -> int:
        return self.order.n

    def level(self, j: int) -> np.ndarray:
        """Transition array applied at step ``j`` (1-based)."""
        return self.levels[j - 1]

    @cached_property
    def stable(self) -> bool:
        """Every level carries one transition pair: the ``n + 1`` widths are
        equal, and every level is array-equal to level 1 (a level that is
        level 1's own array object is not compared)."""
        levels = self.levels
        return len(set(self.widths)) == 1 and all(
            t is levels[0] or np.array_equal(levels[0], t) for t in levels[1:])

    @cached_property
    def _walk_levels(self) -> tuple:
        """The levels in the form :func:`_walk` steps, each distinct level
        object compiled once (:func:`_compile`)."""
        compiled = {}
        for t in self.levels:
            if id(t) not in compiled:
                compiled[id(t)] = _compile(self.kind, t)
        return tuple(compiled[id(t)] for t in self.levels)


def _stable_program(kind: str, n: int, level: np.ndarray, accept: Iterable[int]) -> ObddProgram:
    """The stable program in the natural order that repeats ``level`` at
    every step from node 0; every level is as wide as ``level``'s source."""
    return ObddProgram(
        kind=kind,
        order=natural_order(n),
        widths=(level.shape[-1],) * (n + 1),
        levels=(level,) * n,
        initial=0,
        accept=frozenset(accept),
    )


@dataclass(frozen=True)
class StateVector:
    """Distribution (probabilistic) or amplitude vector (quantum) over a level."""

    entries: np.ndarray

    @property
    def quantum(self) -> bool:
        """Amplitudes, not probabilities: the entries are complex."""
        return np.iscomplexobj(self.entries)

    def normalization_defect(self) -> float:
        if self.quantum:
            return abs(float(np.sum(np.abs(self.entries) ** 2)) - 1.0)
        return abs(float(np.sum(self.entries)) - 1.0)


@dataclass(frozen=True)
class AcceptanceMode:
    """How acceptance probabilities are judged against a target function.

    ``deterministic`` demands probability exactly 1/0; ``exact`` the same up
    to :data:`EXACT_TOL`; ``bounded_error(eps)`` demands at least
    ``1/2 + eps`` on 1-inputs and at most ``1/2 - eps`` on 0-inputs;
    ``nondeterministic(cutoff)`` treats probability above ``cutoff`` as
    acceptance (``cutoff = 0`` is the classical existing-path test), for
    a cutoff in ``[0, 1)``: at or above 1 nothing would be accepted.
    The tests apply elementwise to arrays of probabilities.
    """

    variant: str
    epsilon: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if self.variant not in ("deterministic", "exact", "bounded_error", "nondeterministic"):
            raise ValueError(f"unknown acceptance mode {self.variant!r}")
        if self.variant == "bounded_error":
            if self.epsilon is None or not 0.0 < self.epsilon <= 0.5:
                raise ValueError("bounded_error needs epsilon in (0, 1/2]")
        if self.variant == "nondeterministic":
            # written so that a NaN cutoff fails the test too
            if self.cutoff is None or not 0.0 <= self.cutoff < 1.0:
                raise ValueError(f"nondeterministic needs a cutoff in [0, 1), got {self.cutoff}")

    @classmethod
    def deterministic(cls) -> "AcceptanceMode":
        return cls("deterministic")

    @classmethod
    def exact(cls) -> "AcceptanceMode":
        return cls("exact")

    @classmethod
    def bounded_error(cls, epsilon: float) -> "AcceptanceMode":
        return cls("bounded_error", epsilon=epsilon)

    @classmethod
    def nondeterministic(cls, cutoff: float = 0.0) -> "AcceptanceMode":
        return cls("nondeterministic", cutoff=cutoff)

    def accepts_yes(self, p: float) -> bool:
        if self.variant == "deterministic":
            return p == 1.0
        if self.variant == "exact":
            return abs(p - 1.0) <= EXACT_TOL
        if self.variant == "bounded_error":
            return p >= 0.5 + self.epsilon - STRUCT_TOL
        return p > self.cutoff

    def accepts_no(self, p: float) -> bool:
        if self.variant == "deterministic":
            return p == 0.0
        if self.variant == "exact":
            return p <= EXACT_TOL
        if self.variant == "bounded_error":
            return p <= 0.5 - self.epsilon + STRUCT_TOL
        return p <= self.cutoff


#: program kinds each mode can judge
MODE_KINDS = {
    "deterministic": ("deterministic",),
    "exact": ("deterministic", "probabilistic", "quantum"),
    "bounded_error": ("deterministic", "probabilistic", "quantum"),
    "nondeterministic": ("nondeterministic", "quantum"),
}


# ---------------------------------------------------------------------------
# the stepping kernel
# ---------------------------------------------------------------------------

def _advance(t: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The batch ``states`` after one level, on symbol 0 and on symbol 1.

    The only forward batch step (:func:`_split_table` steps back).  States
    are node indices ``int[B]`` (deterministic), reachable-set rows
    ``bool[B, w_in]`` or vector rows ``float/complex[B, w_in]``; the result
    stacks the two successor batches, of shape ``(2, B)`` or
    ``(2, B, w_out)``.  Both come from one gather or one 2-D product over
    the source-major rows of ``t``, whose columns run (symbol, target), so
    each state's two images land side by side and ``_double``'s
    interleave is a free reshape.
    """
    if t.ndim == 2:
        return t.T.take(states, axis=0).T
    rows = t.transpose(2, 0, 1).reshape(t.shape[2], -1)
    if t.dtype == bool:
        # the 0/1 product runs on BLAS in float32, exactly (the counts stay
        # far below 2**24); numpy's boolean matmul has no BLAS path
        images = states.astype(np.float32) @ rows.astype(np.float32) > 0
    else:
        images = states @ rows
    return images.reshape(len(states), 2, -1).swapaxes(0, 1)


def _start(p: "ObddProgram") -> np.ndarray:
    """The batch of one start state: the initial node, or its basis row."""
    if p.kind == "deterministic":
        return np.array([p.initial])
    return np.eye(1, p.widths[0], p.initial, dtype=_STATE_DTYPES[p.kind])


def _double(levels: Sequence[np.ndarray], states: np.ndarray) -> np.ndarray:
    """Every extension of each state in the batch through ``levels``; the
    extension of state ``b`` by symbols ``s1 s2 ...`` lands at index
    ``b * 2**len(levels) + int('s1s2...', 2)``."""
    for t in levels:
        images = _advance(t, states)
        states = images.swapaxes(0, 1).reshape(-1, *images.shape[2:])
    return states


def cube_transpose(values: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Reorder a ``2**n`` table by permuting the axes of its ``(2,) * n`` cube.

    With ``axes = perm`` an input-indexed table becomes indexed by the
    bits in test order; ``argsort(perm)`` goes back.
    """
    n = values.size.bit_length() - 1
    return np.ascontiguousarray(values.reshape((2,) * n).transpose(axes)).reshape(-1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_level(kind: str, j: int, t: np.ndarray, w_in: int, w_out: int, out: list[str]):
    form, name = _ARRAY_FORMS.get(t.dtype.kind, (None, None))
    if form != kind:
        out.append(f"level {j}: {name or t.dtype} transition in a {kind} program")
        return
    shape = (2, w_in) if kind == "deterministic" else (2, w_out, w_in)
    if t.ndim != len(shape) or t.shape[0] != 2:
        out.append(f"level {j}: transition array of shape {t.shape}, expected {shape}")
        return
    if t.shape[-1] != w_in:
        out.append(f"level {j}: source dimension {t.shape[-1]} != width {w_in}")
        return
    if t.shape != shape:
        out.append(f"level {j}: target dimension {t.shape[1]} != width {w_out}")
        return
    if kind == "quantum" and w_out != w_in:
        out.append(f"level {j}: unitary must be square, got {t.shape[1:]}")
        return
    if kind == "nondeterministic":
        return
    if kind == "deterministic":
        bad = (t < 0) | (t >= w_out)
        if bad.any():
            for sym, s in np.argwhere(bad):
                out.append(f"level {j} symbol {sym}: node {s} maps to {t[sym, s]} "
                           f"outside 0..{w_out - 1}")
        return
    if not (np.abs(t) <= 1 + STRUCT_TOL).all():
        # no stochastic or unitary matrix has a non-finite entry or one of
        # modulus above 1, and such entries could overflow the checks below
        for sym in range(2):
            if not np.isfinite(t[sym]).all():
                out.append(f"level {j} symbol {sym}: non-finite entries")
            elif not (np.abs(t[sym]) <= 1 + STRUCT_TOL).all():
                out.append(f"level {j} symbol {sym}: entries of modulus above 1")
        return
    images = t.transpose(0, 2, 1)  # images[sym, s]: node s after sym
    if kind == "probabilistic":
        for sym in np.flatnonzero((images < -STRUCT_TOL).any(axis=(1, 2))):
            out.append(f"level {j} symbol {sym}: negative entries")
        sums = images.sum(axis=2)
        bad = np.abs(sums - 1.0) > STRUCT_TOL
        if bad.any():
            for sym, col in np.argwhere(bad):
                out.append(f"level {j} symbol {sym}: column {col} sums to {sums[sym, col]:.6g}")
    else:
        gram = images.conj() @ images.transpose(0, 2, 1)
        defects = np.abs(gram - np.eye(w_in)).max(axis=(1, 2))
        for sym in np.flatnonzero(defects > STRUCT_TOL):
            out.append(f"level {j} symbol {sym}: not unitary "
                       f"(max |U*U - I| = {defects[sym]:.3g})")


def validate_program(p: ObddProgram) -> ValidationReport:
    """Check every structural invariant of a program; never raises.

    It is the check :class:`ObddProgram` runs when it is built, so on any
    built program it reports no violation.  Returns a report listing
    violations: transition arrays of the wrong
    dtype or shape, non-finite entries or entries of modulus above 1,
    out-of-range targets,
    non-stochastic columns, non-unitary matrices, and out-of-range initial
    or accepting nodes.
    """
    out: list[str] = []
    n = p.n
    if len(p.widths) != n + 1:
        out.append(f"expected {n + 1} level widths, got {len(p.widths)}")
        return ValidationReport(tuple(out))
    if any(w < 1 for w in p.widths):
        out.append("level widths must be positive")
        return ValidationReport(tuple(out))
    if len(p.levels) != n:
        out.append(f"expected {n} level transitions, got {len(p.levels)}")
        return ValidationReport(tuple(out))
    if not 0 <= p.initial < p.widths[0]:
        out.append(f"initial node {p.initial} outside 0..{p.widths[0] - 1}")
    bad_accept = [a for a in p.accept if not 0 <= a < p.widths[n]]
    if bad_accept:
        out.append(f"accepting nodes {sorted(bad_accept)} outside 0..{p.widths[n] - 1}")
    # stable programs repeat one array object, which needs checking once
    clean = set()
    for j, (t, w_in, w_out) in enumerate(zip(p.levels, p.widths, p.widths[1:]), start=1):
        key = (id(t), w_in, w_out)
        if key not in clean:
            found = len(out)
            _check_level(p.kind, j, t, w_in, w_out, out)
            if len(out) == found:
                clean.add(key)
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def parse_bits(bits: Bits, n: int | None = None) -> tuple[int, ...]:
    """Normalize '0101' / [0,1,0,1] to a tuple of ints, checking length.
    A sequence entry must equal its ``int`` cast (bools and numpy integers
    do), so that no float is truncated and no string parsed."""
    if isinstance(bits, str):
        try:
            vals = tuple(map({"0": 0, "1": 1}.__getitem__, bits))
        except KeyError:
            raise ValueError(f"input {bits!r} contains non-binary symbols") from None
    else:
        bits = tuple(bits)
        try:
            vals = tuple(map(int, bits))
        except (TypeError, ValueError):
            vals = None
        if vals != bits or not {0, 1}.issuperset(vals):
            raise ValueError("input bits must be 0 or 1")
    if n is not None and len(vals) != n:
        raise ValueError(f"input length {len(vals)} != n = {n}")
    return vals


def _compile(kind: str, t: np.ndarray) -> tuple:
    """One level in the form :func:`_walk` steps, per symbol: the successor
    list (deterministic), the target bitmasks, bit ``u`` of ``masks[s]``
    set iff node ``s`` may move to node ``u`` (nondeterministic), or the
    ``(w_in, w_out)`` matrix that a state row multiplies (the vector
    kinds)."""
    if kind == "deterministic":
        return tuple(t.tolist())
    if kind == "nondeterministic":
        packed = np.packbits(t.transpose(0, 2, 1), axis=2, bitorder="little")
        return tuple([int.from_bytes(row.tobytes(), "little") for row in packed[sym]]
                     for sym in (0, 1))
    return (t[0].T, t[1].T)


def _walk(p: ObddProgram, bits: Bits) -> list:
    """States before and after every step on one input: node indices
    (deterministic), reachable node sets as bitmasks (nondeterministic) or
    state vectors (the vector kinds)."""
    x = parse_bits(bits, p.n)
    steps = p._walk_levels
    # the symbol consumed at step j is the input bit at tested position perm[j-1]
    symbols = [x[pos] for pos in p.order.perm]
    if p.kind == "deterministic":
        path = [p.initial]
        for level, sym in zip(steps, symbols):
            path.append(level[sym][path[-1]])
    elif p.kind == "nondeterministic":
        path = [1 << p.initial]
        for level, sym in zip(steps, symbols):
            masks, reach, image = level[sym], path[-1], 0
            # the members of reach, lowest first, inline: a _members call
            # per step about triples the cost of a narrow step
            while reach:
                low = reach & -reach
                image |= masks[low.bit_length() - 1]
                reach ^= low
            path.append(image)
    else:
        path = [_start(p)[0]]
        for level, sym in zip(steps, symbols):
            path.append(path[-1] @ level[sym])
    return path


def _members(mask: int) -> list[int]:
    """The nodes of a reachable-set bitmask, in increasing order."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


def simulate(p: ObddProgram, bits: Bits) -> float:
    """Acceptance probability of ``p`` on one input.

    Deterministic programs return exactly 0.0 or 1.0; nondeterministic
    programs return 1.0 iff an accepting path exists (reachable-set
    propagation, no floating point); the vector kinds return final mass on
    the accepting set.
    """
    final = _walk(p, bits)[-1]
    if p.kind == "deterministic":
        return float(final in p.accept)
    if p.kind == "nondeterministic":
        return float(any(final >> a & 1 for a in p.accept))
    mass = final[sorted(p.accept)]
    return float(np.sum(np.abs(mass) ** 2 if p.kind == "quantum" else mass))


def state_trace(p: ObddProgram, bits: Bits) -> list[StateVector]:
    """Per-level state vectors ``v^0 .. v^n`` for the vector kinds."""
    if p.kind not in ("probabilistic", "quantum"):
        raise ValueError("state_trace applies to probabilistic/quantum programs")
    return [StateVector(v) for v in _walk(p, bits)]


def node_trace(p: ObddProgram, bits: Bits) -> list:
    """Per-level node (deterministic) or reachable node set (nondeterministic)."""
    if p.kind == "deterministic":
        return _walk(p, bits)
    if p.kind == "nondeterministic":
        return [frozenset(_members(reach)) for reach in _walk(p, bits)]
    raise ValueError("node_trace applies to deterministic/nondeterministic programs")


def acceptance_table(p: ObddProgram) -> np.ndarray:
    """Acceptance probability of ``p`` on every input, as ``float[2**n]``
    indexed like ``FunctionSpec.truth_table`` (first bit most significant).

    A meet in the middle at the cut ``h = n // 2`` (:func:`_split_table`):
    prefix doubling gives the level-``h`` states of all ``2**h`` prefixes,
    a backward pass gives the value of each level-``h`` node on all
    ``2**(n-h)`` suffixes, and one gather or one product joins them.  The
    cube costs ``n`` vectorized steps on at most ``2**(n - n // 2)`` rows
    instead of ``n * 2**n`` scalar ones.
    """
    n = p.n
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"exhaustive check needs n <= {ENUMERATION_CAP}, got {n}")
    return cube_transpose(_split_table(p, n // 2), np.argsort(p.order.perm))


def _split_table(p: ObddProgram, h: int) -> np.ndarray:
    """The acceptance table of ``p`` in test order, met at the cut after
    step ``h`` (``0 <= h <= n``).

    ``values[u, i]`` is the acceptance of level-``h`` node ``u`` on the
    ``i``-th suffix (steps ``h+1..n``, first bit most significant), or
    for the quantum kind the amplitude of each accepting node in turn.
    Each earlier level prepends its symbol by one gather or one product
    over the source-major rows :func:`_advance` reads.  The table is then
    ``values[prefixes]`` (deterministic), ``prefixes @ values > 0``
    (nondeterministic, in float32: the backward pass clips its path
    counts to 0/1, so every count stays exact) or ``prefixes @ values``
    (probabilistic).  The quantum kind sums ``|x @ a|**2`` over the
    accepting amplitude columns ``a`` of a suffix, which is the real form
    ``Re sum_uv x_u conj(x_v) G[u, v]`` with ``G = sum a conj(a)^T``: one
    real product writes the table, where the amplitudes themselves would
    take ``2 * |accept|`` times its memory.
    ``h = n`` is plain forward doubling.
    """
    n, w = p.n, p.widths[h]
    prefixes = _double(p.levels[:h], _start(p))
    accept = sorted(p.accept)
    if p.kind == "quantum":
        values = np.eye(p.widths[-1], dtype=complex)[:, accept]
    else:
        values = np.zeros((p.widths[-1], 1), dtype=np.float32 if p.kind == "nondeterministic"
                          else float)
        values[accept] = 1
    for t in reversed(p.levels[h:]):
        w_in = t.shape[-1]
        if t.ndim == 2:
            values = values[t.T]
        else:
            rows = t.transpose(2, 0, 1).reshape(2 * w_in, -1)  # row 2s + sym
            if t.dtype == bool:
                values = np.minimum(rows.astype(np.float32) @ values, 1)
            else:
                values = rows @ values
        values = values.reshape(w_in, 2 * values.shape[-1])
    if p.kind == "deterministic":
        return values[prefixes].reshape(-1)
    if p.kind == "nondeterministic":
        return (prefixes.astype(np.float32) @ values > 0).reshape(-1).astype(float)
    if p.kind == "probabilistic":
        return (prefixes @ values).reshape(-1)
    a = values.reshape(w, 1 << (n - h), len(accept))
    gram = np.einsum("usa,vsa->uvs", a, a.conj()).reshape(w * w, -1)
    outer = (prefixes[:, :, None] * prefixes[:, None, :].conj()).reshape(len(prefixes), -1)
    table = (np.hstack([outer.real, -outer.imag]) @ np.vstack([gram.real, gram.imag])).reshape(-1)
    # a sum of squares, but cancellation in the form can leave about -1e-17
    return np.maximum(table, 0, out=table)


# ---------------------------------------------------------------------------
# checking a program against a function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComputesResult:
    """Verdict of :func:`computes`: yes, or no with a witness input."""

    counterexample: str | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        """Yes: no input is a counterexample."""
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.ok


def computes(p: ObddProgram, f, mode: AcceptanceMode) -> ComputesResult:
    """Does ``p`` compute ``f`` under ``mode``?

    Every input with ``f = 1`` must satisfy the mode's accept side and every
    ``f = 0`` input its reject side; inputs where ``f`` is undefined are
    unconstrained.  All ``2**n`` inputs are checked at once through
    :func:`acceptance_table` (``n <= ENUMERATION_CAP``); the counterexample
    is the failing input of smallest index.
    """
    if p.n != f.n:
        raise ValueError(f"program has n = {p.n} but function has n = {f.n}")
    if p.kind not in MODE_KINDS[mode.variant]:
        raise ModeKindMismatchError(f"{mode.variant} mode cannot judge a {p.kind} program")
    prob = acceptance_table(p)
    table = f.truth_table()
    wrong = np.flatnonzero(((table == 1) & ~mode.accepts_yes(prob))
                           | ((table == 0) & ~mode.accepts_no(prob)))
    if wrong.size == 0:
        return ComputesResult()
    i = int(wrong[0])
    return ComputesResult(format(i, f"0{p.n}b"),
                          f"f = {table[i]} but acceptance {prob[i]:.6g}")


# ---------------------------------------------------------------------------
# width accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidthReport:
    """Per-level width values with provenance.

    ``kind`` is ``exact`` (a true minimal width), ``lower_bound`` (no
    correct program can be narrower) or ``construction`` (widths of a
    concrete program; ``method`` says which).
    """

    per_level: tuple[int, ...]
    kind: str
    method: str
    order: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("exact", "lower_bound", "construction"):
            raise ValueError(f"unknown report kind {self.kind!r}")

    @property
    def max_width(self) -> int:
        return max(self.per_level)


def program_width(p: ObddProgram) -> WidthReport:
    """The level sizes ``w[0..n]`` of a program; the report's
    ``max_width``, over every level including level 0, is the width
    reports quote."""
    return WidthReport(p.widths, "construction", "level sizes", p.order.perm)


def reachable_widths(p: ObddProgram) -> WidthReport:
    """How many nodes per level some input reaches in a classical
    program, by stepping reachable sets through the batch kernel."""
    if p.kind not in ("deterministic", "nondeterministic"):
        raise ValueError("reachable_widths applies to deterministic/nondeterministic programs")
    reach = _start(p)
    counts = [1]
    for t in p.levels:
        images = _advance(t, reach)
        if p.kind == "deterministic":
            reach = np.flatnonzero(np.bincount(images.ravel()))  # node indices
            counts.append(reach.size)
        else:
            reach = images.any(axis=(0, 1))[None]   # one reachable-set row
            counts.append(int(reach.sum()))
    return WidthReport(tuple(counts), "construction", "reachable nodes", p.order.perm)


# ---------------------------------------------------------------------------
# model-level transformations
# ---------------------------------------------------------------------------

def nobdd_to_obdd_subset(p: ObddProgram) -> ObddProgram:
    """Determinize a nondeterministic program by the subset construction.

    The result accepts exactly the inputs ``p`` accepts and has width at
    most ``2**w`` where ``w`` is the width of ``p``; only subsets reachable
    from ``{initial}`` are materialized.  Raises :class:`CapExceededError`
    if any level needs more than ``_SUBSET_CAP`` subset nodes.

    Each level's image rows are keyed by their packed bytes
    (``np.packbits``, one ``ceil(w/8)``-byte record per row); the padding
    bits are zero, so equal keys are equal sets, and one 1-D ``unique``
    over the keys finds the distinct images.  Each new subset is numbered
    at its first (subset, symbol) row.
    """
    if p.kind != "nondeterministic":
        raise ValueError("subset construction applies to nondeterministic programs")

    subsets = _start(p)
    widths, maps = [1], []
    for j, t in enumerate(p.levels, start=1):
        # row 2s + sym is the image of subset s on symbol sym
        images = _double([t], subsets)
        keys = np.packbits(images, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if first.size > _SUBSET_CAP:
            raise CapExceededError(f"subset construction exceeded {_SUBSET_CAP} nodes at level {j}")
        order = np.argsort(first)
        number = np.empty_like(first)
        number[order] = np.arange(first.size)
        # the numbers as (w, 2) rows, transposed: a source-major level
        level = number[inverse].reshape(-1, 2).T
        level.setflags(write=False)
        maps.append(level)
        subsets = images[first[order]]
        widths.append(len(subsets))

    accept = np.flatnonzero(subsets[:, sorted(p.accept)].any(axis=1))
    return ObddProgram(
        kind="deterministic",
        order=p.order,
        widths=tuple(widths),
        levels=tuple(maps),
        initial=0,
        accept=frozenset(accept.tolist()),
    )


def _lift(t: np.ndarray, w_out: int) -> np.ndarray:
    """The 0/1 column-stochastic matrices of a deterministic level, built
    source-major: row ``s`` of ``eye[t.T]`` holds node ``s``'s two images."""
    m = np.eye(w_out)[t.T].transpose(1, 2, 0)
    m.setflags(write=False)
    return m


def lift_deterministic(p: ObddProgram) -> ObddProgram:
    """View a deterministic program as a probabilistic one with 0/1 matrices.

    Each distinct level object is lifted once per target width, so the
    lifted program shares its levels where ``p`` does: a stable counter
    lifts to one matrix pair, not one per level."""
    if p.kind != "deterministic":
        raise ValueError("lift applies to deterministic programs")
    lifted: dict[tuple[int, int], np.ndarray] = {}
    for t, w in zip(p.levels, p.widths[1:]):
        if (id(t), w) not in lifted:
            lifted[id(t), w] = _lift(t, w)
    return ObddProgram(
        kind="probabilistic",
        order=p.order,
        widths=p.widths,
        levels=tuple(lifted[id(t), w] for t, w in zip(p.levels, p.widths[1:])),
        initial=p.initial,
        accept=p.accept,
    )


def stable_symbol_chain(p: ObddProgram, symbol: int) -> np.ndarray:
    """The single per-symbol transition of a stable program, as a
    column-stochastic matrix (the Markov chain of reading that symbol
    forever).  Deterministic maps are lifted to 0/1 matrices."""
    if symbol not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    if not p.stable:
        raise NotStableError("program is not stable: its level widths or transitions differ")
    if p.kind not in ("deterministic", "probabilistic"):
        raise ValueError(f"symbol chain is defined for classical chains, not {p.kind}")
    t = p.levels[0] if p.kind == "probabilistic" else _lift(p.levels[0], p.widths[0])
    return t[symbol].copy()


def programs_structurally_equal(a: ObddProgram, b: ObddProgram) -> bool:
    """Field-by-field equality (exact array comparison of the levels).  Each
    distinct pair of level objects is compared once, and an object equals
    itself."""
    if (a.kind, a.order, a.widths, a.initial, a.accept) != (
        b.kind, b.order, b.widths, b.initial, b.accept
    ):
        return False
    pairs = {(id(x), id(y)): (x, y) for x, y in zip(a.levels, b.levels) if x is not y}
    return all(np.array_equal(x, y) for x, y in pairs.values())
