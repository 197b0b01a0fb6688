import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obddlab import stable_symbol_chain
from obddlab.constructions import build_det_counter, build_det_partialmod
from obddlab.markov import (
    MarkovDecomposition,
    classify_states,
    limiting_distribution,
    period_lcm_certificate,
)


def cyclic_shift(n):
    return np.roll(np.eye(n), 1, axis=0)


def block_diag(*mats):
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size))
    at = 0
    for m in mats:
        out[at:at + m.shape[0], at:at + m.shape[0]] = m
        at += m.shape[0]
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_mod4_counter_chain_is_one_cyclic_class():
    dec = classify_states(stable_symbol_chain(build_det_partialmod(1, 8), 1))
    assert dec.ergodic_classes == (frozenset({0, 1, 2, 3}),)
    assert dec.periods == (4,)
    assert dec.period_lcm == 4
    assert not dec.transient
    assert all(len(s) == 1 for s in dec.cyclic_subsets[0])


def test_identity_matrix_gives_singleton_regular_classes():
    dec = classify_states(np.eye(3))
    assert len(dec.ergodic_classes) == 3
    assert dec.periods == (1, 1, 1)
    assert dec.period_lcm == 1


def test_empty_chain_has_no_classes():
    dec = classify_states(np.zeros((0, 0)))
    assert (dec.transient, dec.ergodic_classes, dec.period_lcm) == (frozenset(), (), 1)


def test_period_lcm_is_read_off_the_periods():
    dec = classify_states(np.eye(2))
    with pytest.raises(TypeError):
        MarkovDecomposition(dec.transient, dec.ergodic_classes, dec.periods, dec.cyclic_subsets,
                            period_lcm=3)
    dec = MarkovDecomposition(frozenset(), (frozenset({0, 1}), frozenset({2, 3, 4})), (2, 3),
                              ((frozenset({0}), frozenset({1})),
                               (frozenset({2}), frozenset({3}), frozenset({4}))))
    assert dec.period_lcm == 6


def test_two_cycle():
    dec = classify_states(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert dec.ergodic_classes == (frozenset({0, 1}),)
    assert dec.periods == (2,)


def test_transient_states_are_separated():
    # state 1 leaks into state 0 and can never return
    m = np.array([[1.0, 0.5], [0.0, 0.5]])
    dec = classify_states(m)
    assert dec.transient == frozenset({1})
    assert dec.ergodic_classes == (frozenset({0}),)


def test_two_independent_cycles():
    dec = classify_states(block_diag(cyclic_shift(2), cyclic_shift(3)))
    assert sorted(map(len, dec.ergodic_classes)) == [2, 3]
    assert sorted(dec.periods) == [2, 3]
    assert dec.period_lcm == 6


def test_cyclic_subsets_advance_in_rotation():
    chains = [
        cyclic_shift(6),
        stable_symbol_chain(build_det_counter(5, 10), 1),
        block_diag(cyclic_shift(4), cyclic_shift(2)),
        np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]]),
    ]
    for m in chains:
        dec = classify_states(m)
        for cls, period, subsets in zip(dec.ergodic_classes, dec.periods,
                                        dec.cyclic_subsets):
            assert frozenset().union(*subsets) == cls
            for r, subset in enumerate(subsets):
                for s in subset:
                    targets = {t for t in range(m.shape[0]) if m[t, s] > 1e-12}
                    assert targets <= subsets[(r + 1) % period]


def test_classify_rejects_non_stochastic_input():
    with pytest.raises(ValueError):
        classify_states(np.array([[0.5, 0.0], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        classify_states(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        classify_states(np.array([[1.5, 0.0], [-0.5, 1.0]]))


@pytest.mark.parametrize("function", [classify_states, limiting_distribution])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(function, bad):
    m = np.eye(3)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="column 1 has a non-finite entry"):
        function(m)
    with pytest.raises(ValueError, match="column 0 has a non-finite entry"):
        function(np.array([[bad, 0.0], [bad, 1.0]]))


def test_rounding_noise_is_not_an_edge():
    m = np.eye(2)
    m[1, 0] += 1e-15
    m[0, 0] -= 1e-15
    dec = classify_states(m)
    assert len(dec.ergodic_classes) == 2


# ---------------------------------------------------------------------------
# period certificate
# ---------------------------------------------------------------------------

def test_counter_chain_passes_certificate():
    dec = classify_states(stable_symbol_chain(build_det_partialmod(1, 8), 1))
    cert = period_lcm_certificate(dec, 1)
    assert cert.passed
    assert cert.witness_class == 0
    assert cert.period_lcm == 4
    # a cyclic class of period t has at least t states
    assert len(dec.ergodic_classes[cert.witness_class]) >= 4


def test_identity_chain_fails_certificate():
    cert = period_lcm_certificate(classify_states(np.eye(2)), 0)
    assert not cert.passed
    assert "not a multiple of 2" in cert.reason


def test_period_2_and_3_chain_fails_for_k1():
    dec = classify_states(block_diag(cyclic_shift(2), cyclic_shift(3)))
    cert = period_lcm_certificate(dec, 1)
    assert not cert.passed
    assert cert.period_lcm == 6


def test_lcm_divisibility_implies_a_single_witness_class():
    # the power of two in an lcm always comes from one term, so whenever the
    # first condition holds some single class period is a witness
    for mats, k in [
        ((cyclic_shift(4), cyclic_shift(3)), 1),
        ((cyclic_shift(8), cyclic_shift(6)), 2),
        ((cyclic_shift(2),), 0),
    ]:
        cert = period_lcm_certificate(classify_states(block_diag(*mats)), k)
        assert cert.passed and cert.witness_class is not None


def test_certificate_rejects_negative_k():
    with pytest.raises(ValueError):
        period_lcm_certificate(classify_states(np.eye(2)), -1)


@pytest.mark.parametrize("bad", [True, 1.5, "1"])
def test_certificate_k_must_be_integral(bad):
    with pytest.raises(ValueError, match="^k must be integral"):
        period_lcm_certificate(classify_states(np.eye(2)), bad)


def test_certificate_witness_is_the_first_class_whose_period_is_a_multiple():
    # the certificate reads the periods only, so classes of one state each
    # stand for chains with these periods
    for size in (1, 2, 3):
        for periods in itertools.product(range(1, 13), repeat=size):
            dec = MarkovDecomposition(
                transient=frozenset(),
                ergodic_classes=tuple(frozenset({i}) for i in range(size)),
                periods=periods, cyclic_subsets=((),) * size,
            )
            d = math.lcm(*periods)
            for k in range(4):
                required = 1 << (k + 1)
                witnesses = [i for i, t in enumerate(periods) if t % required == 0]
                cert = period_lcm_certificate(dec, k)
                assert (cert.required_multiple, cert.period_lcm) == (required, d)
                assert cert.passed == (d % required == 0) == bool(witnesses)
                if witnesses:
                    assert cert.witness_class == witnesses[0]
                else:
                    assert cert.witness_class is None
                    assert cert.reason == f"lcm of periods D = {d} is not a multiple of {required}"


# ---------------------------------------------------------------------------
# limiting distribution
# ---------------------------------------------------------------------------

def test_limiting_distribution_examples():
    flat = limiting_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert flat == pytest.approx([0.5, 0.5], abs=1e-9)
    single = limiting_distribution(np.array([[1.0]]))
    assert single == pytest.approx([1.0])
    skewed = limiting_distribution(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert skewed == pytest.approx([2 / 3, 1 / 3], abs=1e-9)


def test_limiting_distribution_is_stationary():
    rng = np.random.default_rng(3)
    m = rng.random((4, 4)) + 0.05
    m /= m.sum(axis=0)
    pi = limiting_distribution(m)
    assert m @ pi == pytest.approx(pi, abs=1e-8)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_limiting_distribution_requires_a_regular_chain():
    with pytest.raises(ValueError):
        limiting_distribution(cyclic_shift(3))          # cyclic, period 3
    with pytest.raises(ValueError):
        limiting_distribution(np.eye(2))                # two classes
    with pytest.raises(ValueError):
        limiting_distribution(np.array([[1.0, 0.5], [0.0, 0.5]]))  # transient state


def test_importing_the_package_leaves_scipy_sparse_unloaded():
    """No scipy module loads with the package, a classification, a limiting
    distribution or the Markov report."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, numpy, obddlab; "
            "obddlab.classify_states(numpy.eye(2)); "
            "obddlab.limiting_distribution(numpy.full((2, 2), 0.5)); "
            "obddlab.run_report('markov-analysis', k=1); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]"]
