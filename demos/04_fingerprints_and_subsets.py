"""Chinese-remainder fingerprinting: nondeterministic programs that guess a
small prime and track a count (or a positionally weighted string hash)
modulo it.  Unanimous rejection across branches certifies equality because
the prime product exceeds the value range.  The subset construction then
determinizes the guess and shows the classical cost of removing it."""

from obddlab import (
    AcceptanceMode,
    computes,
    node_trace,
    nobdd_to_obdd_subset,
    program_width,
    reachable_widths,
    simulate,
)
from obddlab.constructions import (
    build_nobdd_noteqs_fingerprint,
    build_nobdd_noto_fingerprint,
    primes_for_fingerprint,
)
from obddlab.functions import not_eqs, not_o_prefix, split_marker_value

k, n = 6, 10
basis = primes_for_fingerprint(k)
print(f"prefix balance check, k={k}: primes {basis.primes} "
      f"(product {basis.product} > {k})")
p = build_nobdd_noto_fingerprint(k, n)
print("program width:", program_width(p).max_width,
      "<= 1 + sum of primes =", 1 + sum(basis.primes))
print("computes NotOk:", computes(p, not_o_prefix(k, n),
                                  AcceptanceMode.nondeterministic()).ok)
balanced = "111000" + "0" * (n - k)
lopsided = "110000" + "0" * (n - k)
print(f"  residues after {balanced}: {sorted(node_trace(p, balanced)[-1])}"
      f" -> {simulate(p, balanced):g} (all branches agree with k/2)")
print(f"  residues after {lopsided}: {sorted(node_trace(p, lopsided)[-1])}"
      f" -> {simulate(p, lopsided):g} (some branch dissents)")

print()
print("== determinizing the guess ==")
d = nobdd_to_obdd_subset(p)
print("subset-construction width:", program_width(d).max_width,
      "(reachable per level:", reachable_widths(d).per_level, ")")
agree = all(
    simulate(d, format(i, f"0{n}b")) == simulate(p, format(i, f"0{n}b"))
    for i in range(1 << n)
)
print("agrees with the nondeterministic original on all inputs:", agree)

print()
kk, nn = 4, 8
print(f"== shuffled-equality fingerprints, k={kk} ==")
odd = primes_for_fingerprint(1 << (kk // 4), odd_only=True)
print("odd primes (2 must be invertible for the positional weights):", odd.primes)
q = build_nobdd_noteqs_fingerprint(kk, nn)
print("program width:", program_width(q).max_width)
print("computes NotEQS:", computes(q, not_eqs(kk, nn),
                                   AcceptanceMode.nondeterministic()).ok)
for bits in ("01110000", "01100000", "00000000"):
    s = split_marker_value(bits, kk)
    print(f"  {bits}: alpha={s.alpha} beta={s.beta}"
          f" -> acceptance {simulate(q, bits):g}")
