"""Tour of the program model: build a tiny counter in all four flavors and
watch the state move through the levels."""

import numpy as np

from obddlab import (
    AcceptanceMode,
    computes,
    level_relation,
    lift_deterministic,
    natural_order,
    node_trace,
    program_width,
    simulate,
    state_trace,
    validate_program,
    ObddProgram,
)
from obddlab.constructions import build_det_counter, build_quantum_partialmod
from obddlab.functions import mod_count

n = 6

print("== deterministic: a width-3 counter over", n, "bits ==")
counter = build_det_counter(3, n)
print("valid:", validate_program(counter).ok)
print("widths:", program_width(counter).per_level)
for bits in ("111000", "110000", "111111"):
    print(f"  node path on {bits}: {node_trace(counter, bits)}"
          f" -> acceptance {simulate(counter, bits):g}")
print("computes MOD(3, 6):",
      computes(counter, mod_count(3, n), AcceptanceMode.deterministic()).ok)

print()
print("== the same counter as a probabilistic program (0/1 matrices) ==")
lifted = lift_deterministic(counter)
trace = state_trace(lifted, "110100")
print("distribution after each level on 110100:")
for j, sv in enumerate(trace):
    print(f"  level {j}: {np.round(sv.entries, 3)}")

print()
print("== nondeterministic: guess a bit position holding a 1 ==")
# one guessing node fans out; a second node is reached only through a 1
guess = ObddProgram(
    kind="nondeterministic",
    order=natural_order(3),
    widths=(1, 2, 2, 2),
    levels=(
        level_relation([[0]], [[0, 1]], 2),
        level_relation([[0], [1]], [[0, 1], [1]], 2),
        level_relation([[0], [1]], [[0, 1], [1]], 2),
    ),
    initial=0,
    accept=frozenset({1}),
)
for bits in ("000", "010", "100"):
    print(f"  reachable sets on {bits}: {node_trace(guess, bits)}"
          f" -> {simulate(guess, bits):g}")

print()
print("== quantum: a rotation that counts ones mod 4 exactly ==")
q = build_quantum_partialmod(1, n)
for bits in ("111100", "110000", "100000"):
    amps = state_trace(q, bits)[-1].entries
    print(f"  final amplitudes on {bits}: {np.round(amps, 4)}"
          f" -> acceptance {simulate(q, bits):.6f}")
