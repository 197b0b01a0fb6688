"""The headline separation: a partial counting promise solved exactly by a
width-2 quantum program while every deterministic program needs width
2**(k+1).  The lower bound is certified here by the exact partition-search
oracle and, independently, by exhaustive search over stable programs."""

from obddlab import AcceptanceMode, computes, program_width, simulate
from obddlab.constructions import build_det_partialmod, build_quantum_partialmod
from obddlab.functions import partial_mod
from obddlab.oracles import (
    distinguishability_lower_bound,
    min_width_over_orders,
    partial_min_width_exact,
    stable_exhaustive_search,
)

k, n = 1, 8
f = partial_mod(k, n)
print(f"PartialMOD with k={k} on {n} bits; count classes:")
print("  ", f.count_profile(), "(None = promise violated, unconstrained)")

print()
quantum = build_quantum_partialmod(k, n)
print("quantum program width:", program_width(quantum).max_width)
print("exact on every defined class:",
      computes(quantum, f, AcceptanceMode.exact()).ok)
for m in (0, 2, 4, 6, 8):
    bits = "1" * m + "0" * (n - m)
    print(f"  acceptance on {m} ones: {simulate(quantum, bits):.9f}")

print()
print("deterministic width floor, three independent ways:")
exact = partial_min_width_exact(f)
print("  exact partition-search oracle:", exact.max_width,
      "(per level", exact.per_level, ")")
print("  naive one-step lower bound:",
      distinguishability_lower_bound(f).max_width,
      " <- too weak: single-level class counting cannot see the floor")
print("  minimum over every variable order:",
      min_width_over_orders(partial_mod(k, 6)).max_width, "(at n = 6)")

print()
print("exhaustive search over stable ID programs (PartialMOD, k=1, n=6):")
small = partial_mod(1, 6)
for w in (2, 3):
    verdict = stable_exhaustive_search(small, w, "nondeterministic")
    print(f"  nondeterministic width {w}: {'found' if verdict else 'none'}")
found = stable_exhaustive_search(small, 4, "deterministic")
print("  deterministic width 4:", "found" if found else "none",
      "- the counter mod 4, rediscovered")

print()
counter = build_det_partialmod(k, n)
print("explicit deterministic counter width:", program_width(counter).max_width,
      "== oracle value:", exact.max_width)
