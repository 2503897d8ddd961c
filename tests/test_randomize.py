import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gptpurity import blocks, checks, errors, formulas, randomize as rnd
from reference import grouprep
from reference import statespace as ss
from gptpurity.errors import InternalError, RangeError
from reference.purity import purity_from_tr2, tr2_from_purity
import haar
from states import compose, marginal_a, purity_pure_times_maxmixed


def _pair(builder, na, nb):
    return compose(builder(na), builder(nb))


def _unpriced(size):
    """The count of a test draw that ``_estimate`` passes whatever its size."""
    return 0, "", 0, ""


def _partial_trace(rho, dims):
    """The A marginal Tr_B of a (d_a d_b) square matrix, or of each in a stack."""
    da, db = dims
    return np.einsum("...ibjb->...ij", rho.reshape(*rho.shape[:-2], da, db, da, db))


# -- predictions ---------------------------------------------------------------------


def test_predict_main_quantum_two_qubits():
    assert formulas.predict_main(4, 4, 2, 2, 1.0).value == pytest.approx(3 / 5, abs=1e-15)


def test_predict_main_classical_cancellation():
    for n_a, n_b, p0 in ((2, 2, 1.0), (3, 5, 0.7), (4, 4, 0.2)):
        pred = formulas.predict_main(n_a, n_b, n_a, n_b, p0)
        assert pred.value == pytest.approx(p0, abs=1e-14)


def test_predict_main_quantum_2x8():
    # Cross-check against the pure-state form (N_A + 1)/(N_A N_B + 1).
    pred = formulas.predict_main(4, 64, 2, 8, 1.0)
    assert pred.value == pytest.approx(3 / 17, abs=1e-15)
    assert pred.value == pytest.approx((2 + 1) / (2 * 8 + 1), abs=1e-15)


def test_predict_main_validates_inputs():
    with pytest.raises(RangeError):
        formulas.predict_main(1, 4, 2, 2, 1.0)
    with pytest.raises(RangeError):
        formulas.predict_main(4, 4, 2, 2, 1.5)
    with pytest.raises(RangeError):
        formulas.predict_main(2, 4, 3, 2, 1.0)  # K_A < N_A


def test_predict_general_matches_main_for_quantum():
    pred = formulas.predict_general("quantum", 2, 2, 1.0)
    assert pred.value == pytest.approx(3 / 5, abs=1e-10)


def test_predict_general_classical_identity():
    assert formulas.predict_general("classical", 3, 3, 0.5).value == pytest.approx(0.5, abs=1e-10)


def test_predict_general_quantum_2x4():
    assert formulas.predict_general("quantum", 2, 4, 1.0).value == pytest.approx(1 / 3, abs=1e-10)


@pytest.mark.parametrize("builder,theory", [(ss.build_quantum, "quantum"),
                                            (ss.build_classical, "classical")])
def test_predict_general_matches_the_composite_route(builder, theory):
    # The level-count lemma against P(phi_A (x) mu_B) taken in the joint's
    # analytic Gram, on composites small enough to build.
    for na, nb in ((2, 2), (2, 3), (3, 2), (4, 4)):
        comp = _pair(builder, na, nb)
        phimu = purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint),
                                              tol=1e-12).numeric
        pred = formulas.predict_general(theory, na, nb, 0.7)
        assert abs(pred.inputs["P_phi_mu"] - phimu) <= 1e-15
        assert (pred.inputs["K_A"], pred.inputs["K_B"]) == (comp.part_a.K, comp.part_b.K)
        k_a, k_b = comp.part_a.K, comp.part_b.K
        assert pred.value == pytest.approx((k_a - 1) / (k_a * k_b - 1) * 0.7 / phimu, abs=1e-15)


def test_predict_power_law_cases():
    assert formulas.predict_power_law(2, 2, 2, 1.0).value == pytest.approx(3 / 5)
    assert formulas.predict_power_law(1, 5, 7, 0.3).value == pytest.approx(0.3)
    assert formulas.predict_power_law(3, 2, 2, 1.0).value == pytest.approx(1 / 3)
    with pytest.raises(RangeError):
        formulas.predict_power_law(0, 2, 2, 1.0)


def _sphere_fourth_moment(d: int, flat_indices) -> float:
    """E[psi_a psi_b psi_c psi_d] for a uniform unit vector in R^d."""
    a, b, c, e = flat_indices
    def delta(i, j):
        return 1.0 if i == j else 0.0
    return (delta(a, b) * delta(c, e) + delta(a, c) * delta(b, e)
            + delta(a, e) * delta(b, c)) / (d * (d + 2))


def _sphere_moment_expected_tr2(m_a: int, m_b: int) -> float:
    """Independent oracle: E Tr[(M M^T)^2] for M the reshaped uniform unit vector."""
    d = m_a * m_b
    total = 0.0
    for i in range(m_a):
        for j in range(m_b):
            for k in range(m_a):
                for l in range(m_b):
                    idx = (i * m_b + j, k * m_b + j, k * m_b + l, i * m_b + l)
                    total += _sphere_fourth_moment(d, idx)
    return total


def test_sphere_moment_oracle_value():
    assert _sphere_moment_expected_tr2(2, 2) == pytest.approx(5 / 6, abs=1e-14)


def test_predict_nonlocaltomo_real_quantum_2x2():
    pred = formulas.predict_general("real-quantum", 2, 2, 1.0)
    assert pred.formula_id == "nonlocaltomo"
    assert pred.inputs["K_A"] == 3 and pred.inputs["K_AB"] == 10
    assert pred.inputs["P_phi_mu"] == pytest.approx(1 / 3, abs=1e-12)
    assert pred.inputs["mu_C_norm_sq"] == 0.0
    assert pred.value == pytest.approx(2 / 3, abs=1e-12)
    assert formulas.predict_general("real-quantum", 2, 3, 0.0).value == 0.0
    # Equivalent collision value matches the sphere-moment oracle.
    assert tr2_from_purity(2, pred.value) == pytest.approx(
        _sphere_moment_expected_tr2(2, 2), abs=1e-12
    )
    # The level-count inputs against the numeric route through the joint
    # real-quantum descriptor, its coordinates and its Gram.
    for m_a, m_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        inputs = formulas.predict_general("real-quantum", m_a, m_b, 1.0).inputs
        joint = ss.build_real_quantum(m_a * m_b)
        gram = grouprep.analytic_gram(joint)
        phi = np.zeros((m_a, m_a))
        phi[0, 0] = 1.0
        phimu = joint.to_coords(np.kron(phi, np.eye(m_b) / m_b)) - joint.max_mixed
        assert abs(gram.norm_sq(phimu) - inputs["P_phi_mu"]) <= 1e-15
        mu_c = joint.to_coords(np.eye(m_a * m_b) / (m_a * m_b)
                               - np.kron(np.eye(m_a) / m_a, np.eye(m_b) / m_b))
        assert gram.norm_sq(mu_c) <= 1e-30
        assert (inputs["K_A"], inputs["K_AB"]) == (ss.build_real_quantum(m_a).K, joint.K)
    for m_a, m_b in ((2, 1), (0, 2)):
        with pytest.raises(RangeError, match="real-quantum level count must be >= 2"):
            formulas.predict_general("real-quantum", m_a, m_b, 1.0)


def test_predict_nonlocaltomo_reduces_to_general_when_tomographic():
    # (K_A-1)/(K_AB-1) * P0/(P(phi_A (x) mu_B) - |mu_C|^2) on a locally tomographic
    # quantum 2x2 composite, K_AB = K_A K_B = 16 and |mu_C|^2 = 0, is the general formula.
    comp = _pair(ss.build_quantum, 2, 2)
    phimu = purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint),
                                          tol=1e-10).numeric
    p0 = 1.0
    value = (4 - 1) / (16 - 1) * p0 / (phimu - 0.0)
    general = formulas.predict_general("quantum", 2, 2, p0).value
    assert value == pytest.approx(general, abs=1e-12)


# -- estimator -------------------------------------------------------------------------


def test_estimator_quantum_2x2_matches_prediction():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 4000, 101)
    assert abs(rep.mean - 0.6) <= 3 * rep.stderr
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-9)


def test_estimator_classical_pure_marginals_exactly_one():
    rep = rnd.estimate_expected_local_purity("classical", 2, 8, 1.0, 500, 11)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_estimator_classical_mixed_transfers_ignorance():
    # The mu-interpolated initial state makes every sample's marginal purity
    # exactly P0 here, so the band degenerates to float roundoff.
    rep = rnd.estimate_expected_local_purity("classical", 2, 8, 0.3, 6000, 13)
    assert abs(rep.mean - 0.3) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(0.3, abs=1e-9)


def test_estimator_seed_determinism_and_worker_independence():
    kw = dict(p0=0.5, n_samples=600, seed=77, histogram=True)
    a = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    b = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    c = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr
    np.testing.assert_array_equal(a.histogram_counts, c.histogram_counts)


def test_estimator_histogram_counts_sum_to_samples():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 300, 3,
                                             histogram=True)
    assert rep.histogram_counts.sum() == 300
    assert len(rep.histogram_edges) == len(rep.histogram_counts) + 1


def test_real_quantum_estimator_matches_sphere_oracle():
    rep = rnd.estimate_expected_local_purity("real-quantum", 2, 2, 1.0, 4000, 31)
    tr_mean = tr2_from_purity(2, rep.mean)
    tr_sigma = rep.stderr / 2  # d(tr)/d(P) = (n-1)/n = 1/2
    assert abs(tr_mean - 5 / 6) <= 3 * tr_sigma


# -- qubit oracle ---------------------------------------------------------------------


def _qubit_rhs(n_a, n_b):
    """2^n_B (K_A - 1)/(K_AB - 1) with K_A = 4^n_A and K_AB = 4^(n_A + n_B)."""
    return 2.0**n_b * (4.0**n_a - 1.0) / (4.0 ** (n_a + n_b) - 1.0)


def test_qubit_oracle_one_one_pure():
    # The qubit coefficient identity
    # (E Tr rho_A^2 - 2^-n_A) / (Tr phi^2 - 2^-n) = 2^n_B (K_A - 1)/(K_AB - 1)
    # on the general estimator; at Tr phi^2 = 1 the left side is
    # (1 - 2^-n_A) E P_A / (1 - 2^-n).
    rep = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 6000, 41)
    per_purity = (1.0 - 0.5) / (1.0 - 0.25)
    assert _qubit_rhs(1, 1) == pytest.approx(0.4, abs=1e-15)
    assert abs(rep.mean * per_purity - _qubit_rhs(1, 1)) <= 3 * rep.stderr * per_purity
    # Lubkin-style oracle: E Tr rho_A^2 = (N_A + N_B)/(N_A N_B + 1) = 4/5.
    sigma_tr = rep.stderr * per_purity * (1.0 - 0.25)
    assert abs(tr2_from_purity(2, rep.mean) - 4 / 5) <= 3 * sigma_tr


def test_qubit_oracle_one_two_rhs():
    # The right side at (1, 2) is the general closed form in ratio units.
    assert _qubit_rhs(1, 2) == pytest.approx(4 / 21, abs=1e-15)
    pred = formulas.predict_general("quantum", 2, 4, 1.0).value
    assert pred * (1.0 - 1.0 / 2) / (1.0 - 1.0 / 8) == pytest.approx(4 / 21, abs=1e-15)


def test_qubit_oracle_consistency_triangle():
    # The ratio identity, converted through the purity conversion, must agree
    # with the main formula to machine precision.
    for n_a, n_b in ((1, 1), (1, 2), (2, 1)):
        na, nb = 2**n_a, 2**n_b
        n = na * nb
        rhs = _qubit_rhs(n_a, n_b)
        main = formulas.predict_main(na**2, nb**2, na, nb, 1.0).value
        # E Tr rho_A^2 for a pure global state via the ratio identity:
        tr_a = 1 / na + rhs * (1.0 - 1.0 / n)
        assert purity_from_tr2(na, tr_a) == pytest.approx(main, abs=1e-12)


# -- Markov tail -------------------------------------------------------------------------


def test_markov_tail_quantum_2x8():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 8, 1.0, 4000, 51,
                                             histogram=True)
    res = checks.markov_tail(rep, 5.0)
    assert res.passed
    assert res.name == "markov-x-5"
    sigma = math.sqrt(res.value * (1.0 - res.value) / rep.n_samples)
    assert res.bound == pytest.approx(5 * rep.mean + 3 * sigma)


def test_markov_tail_degenerate_classical():
    rep = rnd.estimate_expected_local_purity("classical", 2, 2, 1.0, 200, 5,
                                             histogram=True)
    res = checks.markov_tail(rep, 2.0)
    assert res.value == pytest.approx(1.0)
    assert res.bound >= 1.0
    assert res.passed


def test_markov_tail_rejects_bad_inputs():
    rep = rnd.estimate_expected_local_purity("classical", 2, 2, 1.0, 50, 5,
                                             histogram=True)
    with pytest.raises(RangeError):
        checks.markov_tail(rep, 0.5)
    bare = rnd.estimate_expected_local_purity("classical", 2, 2, 1.0, 50, 5)
    with pytest.raises(RangeError):
        checks.markov_tail(bare, 2.0)


def test_report_serialization_roundtrip():
    rep = rnd.estimate_expected_local_purity("classical", 2, 4, 0.5, 100, 9,
                                             histogram=True)
    doc = rep.to_json_dict()
    assert doc["n_samples"] == 100
    assert doc["seed"] == 9
    assert sum(doc["histogram"]["counts"]) == 100


@pytest.mark.parametrize("theory,na,nb,p0", [
    pytest.param("quantum", 2, 2, 0.5, id="0.5"),
    pytest.param("quantum", 2, 2, 0.25, id="0.25"),
    # 98 fl(1/98) != 1: a purity taken from Tr(rho^2) is not zero here.
    pytest.param("quantum", 49, 2, 0.0, id="quantum-49x2-0.0"),
    pytest.param("real-quantum", 7, 7, 0.0, id="real-quantum-7x7-0.0"),
])
def test_estimator_tracks_prediction_at_mixed_purity(theory, na, nb, p0):
    rep = rnd.estimate_expected_local_purity(theory, na, nb, p0, 4000, 61)
    expected = formulas.predict_general(theory, na, nb, p0).value
    assert abs(rep.mean - expected) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(p0, abs=1e-9)
    if p0 == 0.0:
        # A maximally mixed global state has exactly zero purity, globally and locally.
        assert (rep.mean, rep.stderr, rep.realized_global_purity) == (0.0, 0.0, 0.0)
        assert json.dumps(rep.to_json_dict()["mean"]) == "0.0"


def test_estimator_quantum_asymmetric_parts():
    # 2x3: prediction (K_A-1)/(K_A K_B - 1) * (N_A N_B - 1)/(N_A - 1) = 3/7.
    rep = rnd.estimate_expected_local_purity("quantum", 2, 3, 1.0, 4000, 71)
    expected = formulas.predict_main(4, 9, 2, 3, 1.0).value
    assert expected == pytest.approx(3 / 7, abs=1e-14)
    assert abs(rep.mean - expected) <= 3 * rep.stderr + 1e-12


def test_estimator_classical_asymmetric_parts():
    rep = rnd.estimate_expected_local_purity("classical", 3, 5, 0.4, 4000, 73)
    assert abs(rep.mean - 0.4) <= 3 * rep.stderr + 1e-12


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=16),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_predict_main_quantum_reduces_to_pure_state_form(n_a, n_b, p0):
    # With K = N^2 on both parts the formula factors through
    # (N_A + 1)/(N_A N_B + 1) at p0 = 1 and is linear in p0.
    pred = formulas.predict_main(n_a**2, n_b**2, n_a, n_b, p0)
    expected = p0 * (n_a + 1) / (n_a * n_b + 1)
    assert pred.value == pytest.approx(expected, abs=1e-12)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=300, deadline=None)
def test_level_count_predictions_are_correctly_rounded(n_a, n_b, p0):
    # Each value is the float nearest its exact rational: the main formula, and
    # the quantum, classical and real-quantum forms of ``predict_general``.
    exact_p0 = Fraction(p0)

    def main(k_a, k_b):
        return Fraction(k_a - 1, k_a * k_b - 1) * Fraction(n_a * n_b - 1, n_a - 1) * exact_p0

    for k_a, k_b in ((n_a**2, n_b**2), (n_a, n_b)):
        assert formulas.predict_main(k_a, k_b, n_a, n_b, p0).value == float(main(k_a, k_b))
    n = n_a * n_b
    k_a, k_ab = n_a * (n_a + 1) // 2, n * (n + 1) // 2
    exact = {
        "quantum": main(n_a**2, n_b**2),
        "classical": main(n_a, n_b),
        "real-quantum": Fraction(k_a - 1, k_ab - 1) * exact_p0 / Fraction(n_a - 1, n - 1),
    }
    for theory, value in exact.items():
        pred = formulas.predict_general(theory, n_a, n_b, p0)
        assert pred.value == float(value)
        assert pred.inputs["P_phi_mu"] == float(Fraction(n_a - 1, n - 1))
    # The largest integers of a power-law prediction stay integer divisions.
    assert formulas.predict_power_law(2, n_a, n_b, p0).value == pytest.approx(
        float(main(n_a**2, n_b**2)), rel=1e-15)


def test_level_count_predictions_refuse_bad_theories_and_levels():
    with pytest.raises(RangeError, match="quantum level count must be >= 2, got 1"):
        formulas.predict_general("quantum", 1, 2, 1.0)
    with pytest.raises(RangeError, match="classical level count must be >= 2"):
        rnd.estimate_expected_local_purity("classical", 2, 0, 1.0, 10, 1)
    with pytest.raises(RangeError, match="no level-count composite for theory 'gbit'"):
        formulas.predict_general("gbit", 2, 2, 1.0)
    with pytest.raises(RangeError):
        rnd.estimate_expected_local_purity("boxworld", 2, 2, 1.0, 10, 1)


def test_nonlocaltomo_asymmetric_real_quantum_agrees_with_oracle():
    pred = formulas.predict_general("real-quantum", 2, 3, 1.0)
    assert pred.inputs["K_AB"] == 21
    assert pred.inputs["P_phi_mu"] == pytest.approx(1 / 5, abs=1e-12)
    assert tr2_from_purity(2, pred.value) == pytest.approx(
        _sphere_moment_expected_tr2(2, 3), abs=1e-12
    )
    rep = rnd.estimate_expected_local_purity("real-quantum", 2, 3, 1.0, 3000, 99)
    assert abs(rep.mean - pred.value) <= 3 * rep.stderr + 1e-12


# -- the batched kernel against the explicit route -------------------------------------------


@pytest.mark.parametrize("builder,real", [(ss.build_quantum, False),
                                          (ss.build_real_quantum, True)])
def test_ket_kernel_matches_explicit_route(builder, real):
    # Build rho, then partial_trace -> to_coords -> GramMatrix.norm_sq.  The
    # shapes cover both Schmidt sides: W = M M^dagger for 2x3, M^dagger M
    # for 3x2, 8x2 and 10x9; and W with 8 and 9 rows (8x8, 9x9).
    shapes = ((2, 3), (3, 2), (8, 2), (8, 8), (9, 9), (10, 9))
    for (na, nb), p0 in itertools.product(shapes, (0.5, 1.0)):
        n, t = na * nb, math.sqrt(p0)
        part_a, joint = builder(na), builder(n)
        gram_a, gram_ab = grouprep.analytic_gram(part_a), grouprep.analytic_gram(joint)
        # The block draws its kets as haar_kets does from the same generator.
        psi = haar.haar_kets(3, n, np.random.default_rng(5300), real=real)
        local, glob = blocks._haar_ket_block(np.random.default_rng(5300), 3, t, (na, nb), real=real)
        for k, ket in enumerate(psi):
            rho = t * np.outer(ket, ket.conj()) + (1 - t) * np.eye(n) / n
            ref_a = _partial_trace(rho, (na, nb))
            assert local[k] == pytest.approx(
                gram_a.norm_sq(part_a.to_coords(ref_a) - part_a.max_mixed), abs=1e-12)
            assert glob[k] == pytest.approx(
                gram_ab.norm_sq(joint.to_coords(rho) - joint.max_mixed), abs=1e-12)
            assert glob[k] == pytest.approx(p0, abs=1e-12)


# The seeds, the sample count and alpha were fixed before the first run.
KS_SAMPLES = 10_000
KS_ALPHA = 1e-6


@pytest.mark.parametrize("real,nb,seed", [(False, 2, 6101), (False, 8, 6102),
                                          (True, 2, 6103), (True, 8, 6104)])
def test_ket_kernel_local_purity_has_its_exact_law(real, nb, seed):
    # On Haar-random pure states of 2 x nb levels P_A = r^2, for the Bloch
    # vector r of the A marginal, whose eigenvalues (1 +- r)/2 have the
    # fixed-trace Wishart density |l1 - l2|^b (l1 l2)^(b(nb - 1)/2 - 1), b = 2
    # for complex kets and 1 for real ones.  So P_A ~ Beta((b + 1)/2, b(nb - 1)/2):
    # Beta(3/2, nb - 1) for complex kets and Beta(1, (nb - 1)/2) for real ones.
    stats = pytest.importorskip("scipy.stats")

    def law(b):
        return stats.beta((b + 1) / 2, b * (nb - 1) / 2).cdf

    local, _ = blocks._haar_ket_block(np.random.default_rng(seed), KS_SAMPLES, 1.0, (2, nb),
                                      real=real)
    assert stats.kstest(local, law(1 if real else 2)).pvalue > KS_ALPHA
    if real and nb == 8:
        # Negative control: real kets judged against the complex law are rejected.
        assert stats.kstest(local, law(2)).pvalue < KS_ALPHA


def test_permuted_states_match_explicit_route():
    # The classical group permutes outcomes: each permuted state against
    # marginal_a -> GramMatrix.norm_sq, rebuilt from one rng.permutation per
    # sample on an equal stream.  A mu-interpolated state gives every sample
    # the same local purity, so a state of five equal heads, whose A marginal
    # depends on where the permutation sends them, joins it.
    for (na, nb), p0 in itertools.product(((2, 8), (3, 5)), (0.0, 0.3, 1.0, None)):
        comp = _pair(ss.build_classical, na, nb)
        gram_a, gram_ab = grouprep.analytic_gram(comp.part_a), grouprep.analytic_gram(comp.joint)
        k = comp.joint.K
        if p0 is None:
            head, value, rest = 5, 0.15, 0.25 / (k - 5)
        else:
            t = math.sqrt(p0)
            head, value, rest = 1, (1.0 - t) / k + t, (1.0 - t) / k
        p = np.full(k, rest)
        p[:head] = value
        block, cost = blocks._permutation_draw(k, na, rest, head, value, "p")
        got = []

        def draw_classical(rng, size):
            local, glob = block(rng, size)
            got.append((size, local, glob))
            return local, glob

        rnd._estimate(1500, 4402, draw_classical, cost, False)
        assert [size for size, _, _ in got] == [1024, 476]
        for b, (size, local, glob) in enumerate(got):
            ref = rnd.sample_rng(4402, b)
            for j in range(size):
                omega = p[ref.permutation(k)]
                marg = marginal_a(comp, omega)
                assert abs(local[j] - gram_a.norm_sq(marg - comp.part_a.max_mixed)) <= 1e-15
                assert abs(glob[j] - gram_ab.norm_sq(omega - comp.joint.max_mixed)) <= 1e-15
            if p0 == 0.0:
                assert not local.any() and not glob.any()


def test_classical_memory_check_counts_both_block_arrays(monkeypatch):
    # A 2x8 estimate holds its 16-outcome distribution, then a block of 1024
    # rows of K = 16, their A marginals of K_A = 2 and three per-sample vectors:
    # 8 * (16 + 1024 * (16 + 2 + 3)) = 172160 bytes, counted before any block.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 172159)
    with pytest.raises(RangeError, match="172160 bytes"):
        rnd.estimate_expected_local_purity("classical", 2, 8, 0.3, 2000, 0)
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 172160)
    rep = rnd.estimate_expected_local_purity("classical", 2, 8, 0.3, 2000, 0)
    assert rep.realized_global_purity == pytest.approx(0.3, abs=1e-9)


def test_blocks_spans_and_streams():
    calls = []

    def draw(rng, size):
        calls.append((size, rng.bit_generator.state))
        return np.full(size, 0.5), 1.0

    rep = rnd._estimate(2500, 9, draw, _unpriced, False)
    assert [size for size, _ in calls] == [1024, 1024, 452]
    for b, (_, state) in enumerate(calls):
        assert state == rnd.sample_rng(9, b).bit_generator.state
    assert (rep.mean, rep.stderr, rep.n_samples) == (0.5, 0.0, 2500)
    assert rep.realized_global_purity == 1.0
    # Bad counts and seeds are refused before any block is drawn.
    calls.clear()
    for n_samples, seed in ((1, 9), (2500, -1)):
        with pytest.raises(RangeError):
            rnd._estimate(n_samples, seed, draw, _unpriced, False)
    assert calls == []


def test_driver_prices_a_run_in_one_order_before_any_draw():
    # Each run fails every check from the one it names on, so it names the
    # first that fails: the sample count, the seed, the per-sample arrays,
    # the first block's bytes and then the whole request's products.
    calls = []

    def draw(rng, size):
        calls.append(size)
        return np.full(size, 0.5), 1.0

    def cost(size):
        return 1 << 31, f"a block of {size}", size << 40, f"{size} samples' products"

    def light(size):
        return 8, "", size << 40, f"{size} samples' products"

    for n_samples, seed, count, refusal in (
            (1, -1, cost, "need at least 2 samples for a standard error, got 1"),
            (200_000_000, -1, cost, "the seed must be non-negative, got -1"),
            (200_000_000, 0, cost, "3 arrays of 200000000 per-sample values would need 4800000000"),
            (3000, 0, cost, "a block of 1024 would need 2147483648 bytes"),
            # 3000 x 2^40 products, however the 3 blocks split them.
            (3000, 0, light, f"3000 samples' products would take {3000 << 40} products")):
        with pytest.raises(RangeError, match=f"^{refusal}"):
            rnd._estimate(n_samples, seed, draw, count, False)
    assert calls == []


# Draws on sample_rng's own route in a fresh interpreter (numpy.random not yet
# loaded), then compares them with default_rng once the package is imported.
_NARROW_STREAMS = """
import sys
import numpy as np
from gptpurity import randomize as rnd
pairs = ((0, 0), (9, 2), (4119606545, 7), (2**64 + 5, 1), (2**100 + 3, 12))
grid = np.arange(24.0).reshape(4, 6)
drawn = []
for seed, b in pairs:
    rng = rnd.sample_rng(seed, b)
    drawn.append((type(rng), rng.standard_normal(7), rng.permuted(grid, axis=1)))
assert drawn[0][0].__module__ == "numpy.random._generator"
assert not {"numpy.random", "numpy.random._generator", "numpy.random.mtrand"} & sys.modules.keys()
import numpy.random
assert rnd._pcg64_types() == (numpy.random.Generator, numpy.random.PCG64,
                              numpy.random.SeedSequence)
for (seed, b), (kind, normal, permuted) in zip(pairs, drawn):
    ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
    assert kind is numpy.random.Generator
    assert normal.tobytes() == ref.standard_normal(7).tobytes(), (seed, b)
    assert permuted.tobytes() == ref.permuted(grid, axis=1).tobytes(), (seed, b)
print(len(drawn))
"""


# A process's first draw, then ``import numpy.random``: the package binds the
# three extension modules the draw imported, and they hold the drawn types.
_PACKAGE_AFTER_A_DRAW = """
from gptpurity import randomize as rnd
rng = rnd.sample_rng(3, 0)
seed_sequence = rnd._pcg64_types()[2]
import numpy.random
assert numpy.random.bit_generator.SeedSequence is seed_sequence
assert numpy.random._generator.Generator is type(rng) is numpy.random.Generator
assert numpy.random._pcg64.PCG64 is type(rng.bit_generator) is numpy.random.PCG64
print(seed_sequence.__module__)
"""


# Eight threads make a process's first draws at once, with a short switch
# interval: each gets a Generator of the one type, and no placeholder stays.
_CONCURRENT_FIRST_DRAWS = """
import sys, threading
from gptpurity import randomize as rnd
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
kinds, errors = [], []
def first_draw(seed):
    barrier.wait()
    try:
        kinds.append(type(rnd.sample_rng(seed, 0)))
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_draw, args=(seed,)) for seed in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
assert errors == [], errors[:2]
assert len(kinds) == 8 and len(set(kinds)) == 1
assert "numpy.random" not in sys.modules
print(kinds[0].__name__)
"""


def _fresh_interpreter(code: str) -> str:
    src = str(Path(rnd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_block_streams_are_default_rng_streams_without_the_package():
    assert _fresh_interpreter(_NARROW_STREAMS).split() == ["5"]


def test_numpy_random_after_a_draw_binds_the_drawn_modules():
    assert _fresh_interpreter(_PACKAGE_AFTER_A_DRAW).split() == ["numpy.random.bit_generator"]


def test_concurrent_first_draws_import_the_generator_once():
    assert _fresh_interpreter(_CONCURRENT_FIRST_DRAWS).split() == ["Generator"]


def test_driver_refuses_a_global_purity_spread():
    def draw(rng, size):
        return np.zeros(size), rng.random(size)

    with pytest.raises(InternalError, match="global purity varied"):
        rnd._estimate(100, 0, draw, _unpriced, False)


@pytest.mark.parametrize("histogram", [True, False])
def test_estimate_refuses_a_nan_sample_value(histogram):
    # np.histogram drops NaN and searchsorted would bin it last; no report
    # is made of it, with or without a histogram.
    def draw(rng, size):
        return np.where(np.arange(size) == 3, np.nan, 0.5), 1.0

    with pytest.raises(InternalError, match="NaN"):
        rnd._estimate(10, 0, draw, _unpriced, histogram)


@st.composite
def _binned_values(draw):
    """A bin count and values on its edges, one ulp either side of them, and anywhere in [-2, 3]."""
    bins = draw(st.sampled_from([1, 7, rnd.HISTOGRAM_BINS]))
    edges = np.linspace(0.0, 1.0, bins + 1)
    special = [*edges, *np.nextafter(edges, -np.inf), *np.nextafter(edges, np.inf), -0.0, -1e-300,
               -3.5, 1.0 + 1e-12, 7.25]
    value = st.one_of(st.sampled_from([float(x) for x in special]),
                      st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
    return bins, draw(st.lists(value, min_size=2, max_size=300))


@given(_binned_values())
@settings(max_examples=300, deadline=None)
def test_histogram_is_np_histogram_of_the_clipped_values(binned):
    # Every value on an edge goes to the bin that the edge opens, 1.0 to the
    # last bin, and values outside [0, 1] to the end bins.
    bins, values = binned
    vals = np.array(values)
    with mock.patch.object(rnd, "HISTOGRAM_BINS", bins):
        rep = rnd._estimate(len(vals), 0, lambda rng, size: (vals, 1.0), _unpriced, True)
    counts, edges = np.histogram(np.clip(vals, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
    assert rep.histogram_edges.dtype == edges.dtype and rep.histogram_counts.dtype == counts.dtype
    assert np.array_equal(rep.histogram_edges.view(np.uint64), edges.view(np.uint64))
    assert np.array_equal(rep.histogram_counts, counts)


@pytest.mark.parametrize("size", [rnd.BLOCK_SIZE, rnd.BLOCK_SIZE - 1])
@pytest.mark.parametrize("dims,real,swap", [((2, 8), False, None), ((8, 2), False, None),
                                            ((9, 9), False, None), ((3, 5), True, None),
                                            ((4, 4), False, -1), ((5, 5), False, 1)])
def test_ket_block_values_do_not_depend_on_the_slice_size(monkeypatch, dims, real, swap, size):
    # One sample's pair sums would be summed pairwise, so a lone last sample
    # (1023 = 511 x 2 + 1 = 146 x 7 + 1) joins the slice before it.
    def block():
        return blocks._haar_ket_block(rnd.sample_rng(4801, 0), size, 0.6, dims, real=real,
                                      swap=swap)

    expected = block()
    for slice_size in (2, 7, rnd.BLOCK_SIZE):
        monkeypatch.setattr(blocks, "SLICE_SIZE", slice_size)
        for got, want in zip(block(), expected):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), slice_size


# -- statistical cross-checks ----------------------------------------------------------------


def test_ket_path_agrees_with_full_unitary_path():
    # The reference conjugates a fixed state of purity 0.5 with a block of
    # Haar unitaries per stream and takes Tr(rho_A^2) of the explicit marginal.
    comp = _pair(ss.build_quantum, 2, 2)
    phi = comp.joint.to_matrix(haar.fixed_purity_state(comp.joint, 0.5,
                                                       np.random.default_rng(5100)))

    def draw(rng, size):
        u = haar.haar_unitaries(size, 4, rng)
        rho = (u @ phi) @ u.conj().transpose(0, 2, 1)
        rho_a = _partial_trace(rho, (2, 2))
        tr_a2 = np.einsum("...ij,...ji->...", rho_a, rho_a).real
        tr2 = np.einsum("...ij,...ji->...", rho, rho).real
        return purity_from_tr2(2, tr_a2), purity_from_tr2(4, tr2)

    ket = rnd.estimate_expected_local_purity("quantum", 2, 2, 0.5, 10_000, 5101)
    full = rnd._estimate(10_000, 5102, draw, _unpriced, False)
    assert full.realized_global_purity == pytest.approx(0.5, abs=1e-9)
    assert abs(ket.mean - full.mean) <= 3 * math.hypot(ket.stderr, full.stderr)


@pytest.mark.parametrize("nb,seed", [(4, 5201), (8, 5202)])
def test_estimator_matches_page_average_purity(nb, seed):
    # Lubkin (1978) / Page (1993): E Tr rho_A^2 = (m + n)/(mn + 1) for a
    # Haar-random pure state on C^m (x) C^n.
    na = 4
    rep = rnd.estimate_expected_local_purity("quantum", na, nb, 1.0, 10_000, seed)
    page = (na + nb) / (na * nb + 1)
    tr_sigma = rep.stderr * (na - 1) / na  # d(tr)/d(P) = (n-1)/n
    assert abs(tr2_from_purity(na, rep.mean) - page) <= 3 * tr_sigma
