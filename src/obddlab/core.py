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

One private kernel, :func:`_advance`, moves a batch of states through one
level on both symbols; a state is a node index, a reachable-set row or a
state-vector row.  Simulation and the traces run it on one input,
:func:`acceptance_table` (and with it :func:`computes`) on all ``2**n``
inputs by prefix doubling, reachability on reachable sets, and validation
on the basis states.  The stable search of :mod:`obddlab.oracles` steps
bit-planes, the reachable sets of 64 candidate programs per machine word,
with its own AND and OR, not through the kernel.

A program is *stable* when every level carries the identical transition
pair, and *ID* when its order is the natural one; a stable ID program of
fixed width behaves like a realtime finite automaton.

All program objects are immutable; every operation here is a pure function
of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: :func:`acceptance_table` holds at most ``2**_CHUNK_LEVELS`` states at once
_CHUNK_LEVELS = 12

Bits = Union[str, Sequence[int]]


class ObddError(Exception):
    """Base class for errors raised by this package."""


class InvalidProgramError(ObddError, ValueError):
    """A program failed validation and was used anyway."""


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
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "perm", tuple(int(i) for i in self.perm))
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


def _pair(on0, on1, dtype, node_major=False) -> np.ndarray:
    a, b = np.asarray(on0, dtype=dtype), np.asarray(on1, dtype=dtype)
    if a.shape != b.shape:
        raise ValueError(f"symbol transitions disagree in shape: {a.shape} vs {b.shape}")
    t = np.stack([a, b], axis=-1).T if node_major else np.stack([a, b])
    t.setflags(write=False)
    return t


def level_map(on0: Iterable[int], on1: Iterable[int]) -> np.ndarray:
    """Deterministic level ``int[2, w_in]`` from two source-indexed target
    lists, stored node-major, so that a node's two successors lie side by
    side for the stepping kernel."""
    return _pair(list(on0), list(on1), np.intp, node_major=True)


def level_relation(on0: Iterable[Iterable[int]], on1: Iterable[Iterable[int]],
                   width: int) -> np.ndarray:
    """Nondeterministic level ``bool[2, width, w_in]`` from two source-indexed
    target-set lists; ``width`` is the size of the target level."""
    rows = (list(on0), list(on1))
    if len(rows[0]) != len(rows[1]):
        raise ValueError("symbol transitions disagree in source dimension")
    t = np.zeros((2, width, len(rows[0])), dtype=bool)
    for sym, per_source in enumerate(rows):
        for s, targets in enumerate(per_source):
            for u in targets:
                if not 0 <= u < width:
                    raise ValueError(f"symbol {sym}: node {s} maps to {u} outside 0..{width - 1}")
                t[sym, u, s] = True
    t.setflags(write=False)
    return t


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
    stable : bool
        Claim that all levels carry one identical transition pair.
    """

    kind: str
    order: VariableOrder
    widths: tuple[int, ...]
    levels: tuple[np.ndarray, ...]
    initial: int
    accept: frozenset[int]
    stable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        # deterministic levels are kept node-major (see level_map), which
        # the kernel reads without a copy; each distinct object is converted
        # once, so a stable program still repeats one array
        arrays = {}
        for t in self.levels:
            if id(t) not in arrays:
                a = np.asarray(t)
                if a.ndim == 2 and not a.T.flags.c_contiguous:
                    a = np.ascontiguousarray(a.T).T
                    a.setflags(write=False)
                arrays[id(t)] = a
        object.__setattr__(self, "levels", tuple(arrays[id(t)] for t in self.levels))
        object.__setattr__(self, "accept", frozenset(int(a) for a in self.accept))
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.order.n

    def level(self, j: int) -> np.ndarray:
        """Transition array applied at step ``j`` (1-based)."""
        return self.levels[j - 1]

    def require_valid(self) -> None:
        # programs are immutable, so the validation verdict is memoized
        report = getattr(self, "_validation", None)
        if report is None:
            report = validate_program(self)
            object.__setattr__(self, "_validation", report)
        if not report.ok:
            raise InvalidProgramError("; ".join(report.violations))


@dataclass(frozen=True)
class StateVector:
    """Distribution (probabilistic) or amplitude vector (quantum) over a level."""

    entries: np.ndarray
    quantum: bool

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

    This is the only code that applies a transition.  States are node
    indices ``int[B]`` (deterministic), reachable-set rows ``bool[B, w_in]``
    or vector rows ``float/complex[B, w_in]``; the result stacks the two
    successor batches, of shape ``(2, B)`` or ``(2, B, w_out)``.
    """
    if t.ndim == 2:
        # rows of the node-major view (see level_map): each state's two
        # images land side by side, so _double's interleave is a free reshape
        return t.T.take(states, axis=0).T
    if t.dtype == bool:
        # the 0/1 product runs on BLAS in float32, exactly (the counts stay
        # far below 2**24); numpy's boolean matmul has no BLAS path
        return states.astype(np.float32) @ t.transpose(0, 2, 1).astype(np.float32) > 0
    return states @ t.transpose(0, 2, 1)


def _basis(kind: str, w: int) -> np.ndarray:
    """The batch of all ``w`` single-node states of a level."""
    if kind == "deterministic":
        return np.arange(w)
    return np.eye(w, dtype=_STATE_DTYPES[kind])


def _start(p: "ObddProgram") -> np.ndarray:
    return _basis(p.kind, p.widths[0])[[p.initial]]


def _double(levels: Sequence[np.ndarray], states: np.ndarray) -> np.ndarray:
    """Every extension of each state in the batch through ``levels``; the
    extension of state ``b`` by symbols ``s1 s2 ...`` lands at index
    ``b * 2**len(levels) + int('s1s2...', 2)``."""
    for t in levels:
        images = _advance(t, states)
        states = images.swapaxes(0, 1).reshape(-1, *images.shape[2:])
    return states


def _acceptance(p: "ObddProgram", states: np.ndarray) -> np.ndarray:
    """Acceptance probability of each final-level state in a batch."""
    idx = sorted(p.accept)
    if p.kind == "deterministic":
        accepting = np.zeros(p.widths[-1])
        accepting[idx] = 1.0
        return accepting[states]
    if p.kind == "nondeterministic":
        return states[:, idx].any(axis=1).astype(float)
    if p.kind == "quantum":
        return np.sum(np.abs(states[:, idx]) ** 2, axis=1)
    return np.sum(states[:, idx], axis=1)


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
    if kind != "deterministic" and not (np.abs(t) <= 1 + STRUCT_TOL).all():
        # no stochastic or unitary matrix has a non-finite entry or one of
        # modulus above 1, and such entries could overflow the checks below
        for sym in range(2):
            if not np.isfinite(t[sym]).all():
                out.append(f"level {j} symbol {sym}: non-finite entries")
            elif not (np.abs(t[sym]) <= 1 + STRUCT_TOL).all():
                out.append(f"level {j} symbol {sym}: entries of modulus above 1")
        return
    images = _advance(t, _basis(kind, w_in))  # images[sym, s]: node s after sym
    if kind == "deterministic":
        bad = (images < 0) | (images >= w_out)
        if bad.any():
            for sym, s in np.argwhere(bad):
                out.append(f"level {j} symbol {sym}: node {s} maps to {images[sym, s]} "
                           f"outside 0..{w_out - 1}")
    elif kind == "probabilistic":
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

    Returns a report listing violations: transition arrays of the wrong
    dtype or shape, non-finite entries or entries of modulus above 1,
    out-of-range targets,
    non-stochastic columns, non-unitary matrices, out-of-range initial or
    accepting nodes, and a stable flag set on a non-stable program.
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
    for j in range(1, n + 1):
        key = (id(p.level(j)), p.widths[j - 1], p.widths[j])
        if key not in clean:
            found = len(out)
            _check_level(p.kind, j, p.level(j), p.widths[j - 1], p.widths[j], out)
            if len(out) == found:
                clean.add(key)
    if p.stable:
        if len(set(p.widths)) != 1:
            out.append("stable flag set but level widths vary")
        first = p.levels[0]
        for j in range(2, n + 1):
            if p.level(j) is not first and not np.array_equal(first, p.level(j)):
                out.append(f"stable flag set but level {j} differs from level 1")
                break
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def parse_bits(bits: Bits, n: int | None = None) -> tuple[int, ...]:
    """Normalize '0101' / [0,1,0,1] to a tuple of ints, checking length."""
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise ValueError(f"input {bits!r} contains non-binary symbols")
        vals = tuple(int(c) for c in bits)
    else:
        vals = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in vals):
            raise ValueError("input bits must be 0 or 1")
    if n is not None and len(vals) != n:
        raise ValueError(f"input length {len(vals)} != n = {n}")
    return vals


def _path(p: ObddProgram, bits: Bits) -> list[np.ndarray]:
    """Batch-of-one states before and after every step on one input."""
    p.require_valid()
    x = parse_bits(bits, p.n)
    states = [_start(p)]
    # the symbol consumed at step j is the input bit at tested position perm[j-1]
    for t, pos in zip(p.levels, p.order.perm):
        states.append(_advance(t, states[-1])[x[pos]])
    return states


def simulate(p: ObddProgram, bits: Bits) -> float:
    """Acceptance probability of ``p`` on one input.

    Deterministic programs return exactly 0.0 or 1.0; nondeterministic
    programs return 1.0 iff an accepting path exists (reachable-set
    propagation, no floating point); the vector kinds return final mass on
    the accepting set.
    """
    return float(_acceptance(p, _path(p, bits)[-1])[0])


def state_trace(p: ObddProgram, bits: Bits) -> list[StateVector]:
    """Per-level state vectors ``v^0 .. v^n`` for the vector kinds."""
    if p.kind not in ("probabilistic", "quantum"):
        raise ValueError("state_trace applies to probabilistic/quantum programs")
    quantum = p.kind == "quantum"
    return [StateVector(states[0], quantum) for states in _path(p, bits)]


def node_trace(p: ObddProgram, bits: Bits) -> list:
    """Per-level node (deterministic) or reachable node set (nondeterministic)."""
    if p.kind == "deterministic":
        return [int(states[0]) for states in _path(p, bits)]
    if p.kind == "nondeterministic":
        return [frozenset(np.flatnonzero(states[0]).tolist()) for states in _path(p, bits)]
    raise ValueError("node_trace applies to deterministic/nondeterministic programs")


def acceptance_table(p: ObddProgram) -> np.ndarray:
    """Acceptance probability of ``p`` on every input, as ``float[2**n]``
    indexed like ``FunctionSpec.truth_table`` (first bit most significant).

    Prefix doubling in test order: after step ``j`` the batch holds the
    states of all ``2**j`` prefixes, so the cube costs ``n`` vectorized
    steps instead of ``n * 2**n`` scalar ones.  Past ``2**_CHUNK_LEVELS``
    states the last ``_CHUNK_LEVELS`` steps run once per prefix of the
    earlier ones, which bounds memory at ``n = ENUMERATION_CAP``.
    """
    p.require_valid()
    n = p.n
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"exhaustive check needs n <= {ENUMERATION_CAP}, got {n}")
    head = max(0, n - _CHUNK_LEVELS)
    prefixes = _double(p.levels[:head], _start(p))
    table = np.concatenate([
        _acceptance(p, _double(p.levels[head:], prefixes[i:i + 1]))
        for i in range(len(prefixes))
    ])
    return cube_transpose(table, np.argsort(p.order.perm))


# ---------------------------------------------------------------------------
# checking a program against a function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComputesResult:
    """Verdict of :func:`computes`: yes, or no with a witness input."""

    ok: bool
    counterexample: str | None = None
    reason: str = ""

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
        return ComputesResult(True)
    i = int(wrong[0])
    return ComputesResult(False, format(i, f"0{p.n}b"),
                          f"f = {table[i]} but acceptance {prob[i]:.6g}")


# ---------------------------------------------------------------------------
# width accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramWidths:
    """Level sizes of a program, plus (for the classical kinds) the sizes
    counting only nodes reachable from the initial node."""

    per_level: tuple[int, ...]
    max_width: int
    reachable_per_level: tuple[int, ...] | None = None
    reachable_max: int | None = None


def program_width(p: ObddProgram) -> ProgramWidths:
    """Level widths ``w[0..n]`` and their maximum.

    The maximum is taken over all levels including level 0; reports quote
    both this and the reachable variant, since conventions differ on
    whether the source level counts.
    """
    p.require_valid()
    per_level = p.widths
    reach_counts = None
    if p.kind in ("deterministic", "nondeterministic"):
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
        reach_counts = tuple(counts)
    return ProgramWidths(
        per_level=per_level,
        max_width=max(per_level),
        reachable_per_level=reach_counts,
        reachable_max=max(reach_counts) if reach_counts else None,
    )


# ---------------------------------------------------------------------------
# model-level transformations
# ---------------------------------------------------------------------------

def nobdd_to_obdd_subset(p: ObddProgram, *, subset_cap: int = 1 << 16) -> ObddProgram:
    """Determinize a nondeterministic program by the subset construction.

    The result accepts exactly the inputs ``p`` accepts and has width at
    most ``2**w`` where ``w`` is the width of ``p``; only subsets reachable
    from ``{initial}`` are materialized.  Raises :class:`CapExceededError`
    if any level needs more than ``subset_cap`` subset nodes.

    Each level's image rows are keyed by their packed bytes
    (``np.packbits``, one ``ceil(w/8)``-byte record per row); the padding
    bits are zero, so equal keys are equal sets, and one 1-D ``unique``
    over the keys finds the distinct images.  Each new subset is numbered
    at its first (subset, symbol) row.
    """
    if p.kind != "nondeterministic":
        raise ValueError("subset construction applies to nondeterministic programs")
    p.require_valid()

    subsets = _start(p)
    widths, maps = [1], []
    for j, t in enumerate(p.levels, start=1):
        # row 2s + sym is the image of subset s on symbol sym
        images = _double([t], subsets)
        keys = np.packbits(images, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if first.size > subset_cap:
            raise CapExceededError(f"subset construction exceeded {subset_cap} nodes at level {j}")
        order = np.argsort(first)
        number = np.empty_like(first)
        number[order] = np.arange(first.size)
        # the numbers as (w, 2) rows, transposed: level_map's node-major array
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
        stable=False,
    )


def _lift(t: np.ndarray, w_out: int) -> np.ndarray:
    """The 0/1 column-stochastic matrices of a deterministic level."""
    m = np.ascontiguousarray(np.eye(w_out)[t].transpose(0, 2, 1))
    m.setflags(write=False)
    return m


def lift_deterministic(p: ObddProgram) -> ObddProgram:
    """View a deterministic program as a probabilistic one with 0/1 matrices.

    Each distinct level object is lifted once per target width, so the
    lifted program shares its levels where ``p`` does: a stable counter
    lifts to one matrix pair, not one per level."""
    if p.kind != "deterministic":
        raise ValueError("lift applies to deterministic programs")
    p.require_valid()
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
        stable=p.stable,
    )


def stable_symbol_chain(p: ObddProgram, symbol: int) -> np.ndarray:
    """The single per-symbol transition of a stable program, as a
    column-stochastic matrix (the Markov chain of reading that symbol
    forever).  Deterministic maps are lifted to 0/1 matrices."""
    if symbol not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    if not p.stable:
        raise NotStableError("program is not stable: levels differ")
    if p.kind not in ("deterministic", "probabilistic"):
        raise ValueError(f"symbol chain is defined for classical chains, not {p.kind}")
    p.require_valid()
    w = p.widths[0]
    t = p.levels[0] if p.kind == "probabilistic" else _lift(p.levels[0], w)
    # column s of the chain is the image of node s
    return np.ascontiguousarray(_advance(t, np.eye(w))[symbol].T)


def programs_structurally_equal(a: ObddProgram, b: ObddProgram) -> bool:
    """Field-by-field equality (exact array comparison of the levels)."""
    if (a.kind, a.order, a.widths, a.initial, a.accept, a.stable) != (
        b.kind, b.order, b.widths, b.initial, b.accept, b.stable
    ):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
