import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gptpurity import composite as cm
from gptpurity import checks, errors, grouprep, randomize as rnd, statespace as ss
from gptpurity.errors import (
    DegenerateCompositeError,
    InternalError,
    InvalidDimensionError,
    RangeError,
    UnsupportedSpaceError,
)
from gptpurity.purity import fixed_purity_state, purity_from_tr2, tr2_from_purity


def _pair(builder, na, nb):
    return cm.compose(builder(na), builder(nb))


# -- predictions ---------------------------------------------------------------------


def test_predict_main_quantum_two_qubits():
    assert rnd.predict_main(4, 4, 2, 2, 1.0).value == pytest.approx(3 / 5, abs=1e-15)


def test_predict_main_classical_cancellation():
    for n_a, n_b, p0 in ((2, 2, 1.0), (3, 5, 0.7), (4, 4, 0.2)):
        pred = rnd.predict_main(n_a, n_b, n_a, n_b, p0)
        assert pred.value == pytest.approx(p0, abs=1e-14)


def test_predict_main_quantum_2x8():
    # Cross-check against the pure-state form (N_A + 1)/(N_A N_B + 1).
    pred = rnd.predict_main(4, 64, 2, 8, 1.0)
    assert pred.value == pytest.approx(3 / 17, abs=1e-15)
    assert pred.value == pytest.approx((2 + 1) / (2 * 8 + 1), abs=1e-15)


def test_predict_main_validates_inputs():
    with pytest.raises(RangeError):
        rnd.predict_main(1, 4, 2, 2, 1.0)
    with pytest.raises(RangeError):
        rnd.predict_main(4, 4, 2, 2, 1.5)
    with pytest.raises(RangeError):
        rnd.predict_main(2, 4, 3, 2, 1.0)  # K_A < N_A


def test_predict_general_matches_main_for_quantum():
    pred = rnd.predict_general("quantum", 2, 2, 1.0)
    assert pred.value == pytest.approx(3 / 5, abs=1e-10)


def test_predict_general_classical_identity():
    assert rnd.predict_general("classical", 3, 3, 0.5).value == pytest.approx(0.5, abs=1e-10)


def test_predict_general_quantum_2x4():
    assert rnd.predict_general("quantum", 2, 4, 1.0).value == pytest.approx(1 / 3, abs=1e-10)


@pytest.mark.parametrize("builder,theory", [(ss.build_quantum, "quantum"),
                                            (ss.build_classical, "classical")])
def test_predict_general_matches_the_composite_route(builder, theory):
    # The level-count lemma against P(phi_A (x) mu_B) taken in the joint's
    # analytic Gram, on composites small enough to build.
    for na, nb in ((2, 2), (2, 3), (3, 2), (4, 4)):
        comp = _pair(builder, na, nb)
        phimu = cm.purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint),
                                              tol=1e-12).numeric
        pred = rnd.predict_general(theory, na, nb, 0.7)
        assert abs(pred.inputs["P_phi_mu"] - phimu) <= 1e-15
        assert (pred.inputs["K_A"], pred.inputs["K_B"]) == (comp.part_a.K, comp.part_b.K)
        k_a, k_b = comp.part_a.K, comp.part_b.K
        assert pred.value == pytest.approx((k_a - 1) / (k_a * k_b - 1) * 0.7 / phimu, abs=1e-15)


def test_predict_power_law_cases():
    assert rnd.predict_power_law(2, 2, 2, 1.0).value == pytest.approx(3 / 5)
    assert rnd.predict_power_law(1, 5, 7, 0.3).value == pytest.approx(0.3)
    assert rnd.predict_power_law(3, 2, 2, 1.0).value == pytest.approx(1 / 3)
    with pytest.raises(RangeError):
        rnd.predict_power_law(0, 2, 2, 1.0)


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
    pred = rnd.predict_real_quantum(2, 2, 1.0)
    assert pred.formula_id == "nonlocaltomo"
    assert pred.inputs["K_A"] == 3 and pred.inputs["K_AB"] == 10
    assert pred.inputs["P_phi_mu"] == pytest.approx(1 / 3, abs=1e-12)
    assert pred.inputs["mu_C_norm_sq"] == 0.0
    assert pred.value == pytest.approx(2 / 3, abs=1e-12)
    # Equivalent collision value matches the sphere-moment oracle.
    assert tr2_from_purity(2, pred.value) == pytest.approx(
        _sphere_moment_expected_tr2(2, 2), abs=1e-12
    )
    # The level-count inputs against the numeric route through the joint
    # real-quantum descriptor, its coordinates and its Gram.
    for m_a, m_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        inputs = rnd.predict_real_quantum(m_a, m_b, 1.0).inputs
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
        with pytest.raises(InvalidDimensionError, match="real-quantum level count must be >= 2"):
            rnd.predict_real_quantum(m_a, m_b, 1.0)


def test_predict_nonlocaltomo_reduces_to_general_when_tomographic():
    comp = _pair(ss.build_quantum, 2, 2)
    phimu = cm.purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint),
                                          tol=1e-10).numeric
    pred = rnd.predict_nonlocaltomo(4, 16, 1.0, phimu, 0.0)
    assert pred.value == pytest.approx(rnd.predict_general("quantum", 2, 2, 1.0).value, abs=1e-12)


def test_predict_nonlocaltomo_edge_cases():
    assert rnd.predict_nonlocaltomo(3, 10, 0.0, 1 / 3, 0.0).value == 0.0
    with pytest.raises(DegenerateCompositeError):
        rnd.predict_nonlocaltomo(3, 10, 1.0, 0.2, 0.5)


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
    kw = dict(p0=0.5, n_samples=600, seed=77)
    a = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    b = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    c = rnd.estimate_expected_local_purity("quantum", 2, 2, **kw)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr
    np.testing.assert_array_equal(a.histogram_counts, c.histogram_counts)


def test_estimator_initial_state_independence():
    comp = _pair(ss.build_quantum, 2, 2)
    p0 = 0.5
    rng = np.random.default_rng(5)
    init1 = fixed_purity_state(comp.joint, p0, rng)
    init2 = fixed_purity_state(comp.joint, p0, rng)
    assert np.max(np.abs(init1 - init2)) > 1e-3
    rep1 = rnd.estimate_expected_local_purity(
        "quantum", 2, 2, p0, 4000, 21, initial=init1)
    rep2 = rnd.estimate_expected_local_purity(
        "quantum", 2, 2, p0, 4000, 22, initial=init2)
    sigma = math.hypot(rep1.stderr, rep2.stderr)
    assert abs(rep1.mean - rep2.mean) <= 3 * sigma


def test_estimator_histogram_counts_sum_to_samples():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 2, 1.0, 300, 3)
    assert rep.histogram_counts.sum() == 300
    assert len(rep.histogram_edges) == len(rep.histogram_counts) + 1


def test_real_quantum_estimator_matches_sphere_oracle():
    rep = rnd.estimate_real_quantum_local_purity(2, 2, 1.0, 4000, 31)
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
    pred = rnd.predict_general("quantum", 2, 4, 1.0).value
    assert pred * (1.0 - 1.0 / 2) / (1.0 - 1.0 / 8) == pytest.approx(4 / 21, abs=1e-15)


def test_qubit_oracle_consistency_triangle():
    # The ratio identity, converted through the purity conversion, must agree
    # with the main formula to machine precision.
    for n_a, n_b in ((1, 1), (1, 2), (2, 1)):
        na, nb = 2**n_a, 2**n_b
        n = na * nb
        rhs = _qubit_rhs(n_a, n_b)
        main = rnd.predict_main(na**2, nb**2, na, nb, 1.0).value
        # E Tr rho_A^2 for a pure global state via the ratio identity:
        tr_a = 1 / na + rhs * (1.0 - 1.0 / n)
        assert purity_from_tr2(na, tr_a) == pytest.approx(main, abs=1e-12)


# -- Markov tail -------------------------------------------------------------------------


def test_markov_tail_quantum_2x8():
    rep = rnd.estimate_expected_local_purity("quantum", 2, 8, 1.0, 4000, 51)
    res = checks.markov_tail(rep, 5.0)
    assert res.passed
    assert res.name == "markov-x-5"
    sigma = math.sqrt(res.value * (1.0 - res.value) / rep.n_samples)
    assert res.bound == pytest.approx(5 * rep.mean + 3 * sigma)


def test_markov_tail_degenerate_classical():
    rep = rnd.estimate_expected_local_purity("classical", 2, 2, 1.0, 200, 5)
    res = checks.markov_tail(rep, 2.0)
    assert res.value == pytest.approx(1.0)
    assert res.bound >= 1.0
    assert res.passed


def test_markov_tail_rejects_bad_inputs():
    rep = rnd.estimate_expected_local_purity("classical", 2, 2, 1.0, 50, 5)
    with pytest.raises(RangeError):
        checks.markov_tail(rep, 0.5)
    bare = rnd.estimate_expected_local_purity(
        "classical", 2, 2, 1.0, 50, 5, histogram_bins=None)
    with pytest.raises(RangeError):
        checks.markov_tail(bare, 2.0)


def test_report_serialization_roundtrip():
    rep = rnd.estimate_expected_local_purity("classical", 2, 4, 0.5, 100, 9)
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
    if theory == "quantum":
        rep = rnd.estimate_expected_local_purity("quantum", na, nb, p0, 4000, 61)
        expected = rnd.predict_main(na * na, nb * nb, na, nb, p0).value
    else:
        rep = rnd.estimate_real_quantum_local_purity(na, nb, p0, 4000, 61)
        expected = rnd.predict_real_quantum(na, nb, p0).value
    assert abs(rep.mean - expected) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(p0, abs=1e-9)
    if p0 == 0.0:
        # A maximally mixed global state has exactly zero purity, globally and locally.
        assert (rep.mean, rep.stderr, rep.realized_global_purity) == (0.0, 0.0, 0.0)
        assert json.dumps(rep.to_json_dict()["mean"]) == "0.0"


def test_estimator_quantum_asymmetric_parts():
    # 2x3: prediction (K_A-1)/(K_A K_B - 1) * (N_A N_B - 1)/(N_A - 1) = 3/7.
    rep = rnd.estimate_expected_local_purity("quantum", 2, 3, 1.0, 4000, 71)
    expected = rnd.predict_main(4, 9, 2, 3, 1.0).value
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
    pred = rnd.predict_main(n_a**2, n_b**2, n_a, n_b, p0)
    expected = p0 * (n_a + 1) / (n_a * n_b + 1)
    assert pred.value == pytest.approx(expected, abs=1e-12)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=300, deadline=None)
def test_level_count_predictions_are_correctly_rounded(n_a, n_b, p0):
    # Each value is the float nearest its exact rational: the main formula, its
    # quantum and classical level-count forms and the real-quantum form.
    exact_p0 = Fraction(p0)

    def main(k_a, k_b):
        return Fraction(k_a - 1, k_a * k_b - 1) * Fraction(n_a * n_b - 1, n_a - 1) * exact_p0

    for k_a, k_b, theory in ((n_a**2, n_b**2, "quantum"), (n_a, n_b, "classical")):
        assert rnd.predict_main(k_a, k_b, n_a, n_b, p0).value == float(main(k_a, k_b))
        pred = rnd.predict_general(theory, n_a, n_b, p0)
        assert pred.value == float(main(k_a, k_b))
        assert pred.inputs["P_phi_mu"] == float(Fraction(n_a - 1, n_a * n_b - 1))
    n = n_a * n_b
    k_a, k_ab = n_a * (n_a + 1) // 2, n * (n + 1) // 2
    exact = Fraction(k_a - 1, k_ab - 1) * exact_p0 / Fraction(n_a - 1, n - 1)
    assert rnd.predict_real_quantum(n_a, n_b, p0).value == float(exact)
    # The largest integers of a power-law prediction stay integer divisions.
    assert rnd.predict_power_law(2, n_a, n_b, p0).value == pytest.approx(
        float(main(n_a**2, n_b**2)), rel=1e-15)


def test_level_count_predictions_refuse_bad_theories_and_levels():
    with pytest.raises(InvalidDimensionError, match="quantum level count must be >= 2, got 1"):
        rnd.predict_general("quantum", 1, 2, 1.0)
    with pytest.raises(InvalidDimensionError, match="classical level count must be >= 2"):
        rnd.estimate_expected_local_purity("classical", 2, 0, 1.0, 10, 1)
    with pytest.raises(UnsupportedSpaceError):
        rnd.predict_general("real-quantum", 2, 2, 1.0)
    with pytest.raises(UnsupportedSpaceError):
        rnd.estimate_expected_local_purity("boxworld", 2, 2, 1.0, 10, 1)


def test_nonlocaltomo_asymmetric_real_quantum_agrees_with_oracle():
    pred = rnd.predict_real_quantum(2, 3, 1.0)
    assert pred.inputs["K_AB"] == 21
    assert pred.inputs["P_phi_mu"] == pytest.approx(1 / 5, abs=1e-12)
    assert tr2_from_purity(2, pred.value) == pytest.approx(
        _sphere_moment_expected_tr2(2, 3), abs=1e-12
    )
    rep = rnd.estimate_real_quantum_local_purity(2, 3, 1.0, 3000, 99)
    assert abs(rep.mean - pred.value) <= 3 * rep.stderr + 1e-12


def test_estimator_rejects_initial_state_with_wrong_purity(rng):
    comp = _pair(ss.build_quantum, 2, 2)
    init = fixed_purity_state(comp.joint, 0.8, rng)
    with pytest.raises(RangeError):
        rnd.estimate_expected_local_purity(
            "quantum", 2, 2, 0.5, 10, 1, initial=init)


# -- the batched kernel against the explicit route -------------------------------------------


@pytest.mark.parametrize("builder,real", [(ss.build_quantum, False),
                                          (ss.build_real_quantum, True)])
def test_ket_kernel_matches_explicit_route(builder, real):
    # Build rho, then partial_trace -> to_coords -> GramMatrix.norm_sq.  The
    # shapes cover both Schmidt sides: W = M M^dagger for 2x3, M^dagger M
    # for 3x2 and 8x2.
    for (na, nb), p0 in itertools.product(((2, 3), (3, 2), (8, 2)), (0.5, 1.0)):
        n, t = na * nb, math.sqrt(p0)
        part_a, joint = builder(na), builder(n)
        gram_a, gram_ab = grouprep.analytic_gram(part_a), grouprep.analytic_gram(joint)
        # The block draws its kets as haar_kets does from the same generator.
        psi = rnd.haar_kets(3, n, np.random.default_rng(5300), real=real)
        local, glob = rnd._haar_ket_block(np.random.default_rng(5300), 3, t, (na, nb), real=real)
        for k, ket in enumerate(psi):
            rho = t * np.outer(ket, ket.conj()) + (1 - t) * np.eye(n) / n
            ref_a = rnd.partial_trace(rho, (na, nb))
            assert local[k] == pytest.approx(
                gram_a.norm_sq(part_a.to_coords(ref_a) - part_a.max_mixed), abs=1e-12)
            assert glob[k] == pytest.approx(
                gram_ab.norm_sq(joint.to_coords(rho) - joint.max_mixed), abs=1e-12)
            assert glob[k] == pytest.approx(p0, abs=1e-12)


def test_conjugated_states_match_explicit_route():
    # One haar_unitaries draw per block, against U phi U^dagger ->
    # partial_trace -> to_coords -> GramMatrix.norm_sq per sample.
    na, nb = 2, 3
    part_a, joint = ss.build_quantum(na), ss.build_quantum(na * nb)
    gram_a, gram_ab = grouprep.analytic_gram(part_a), grouprep.analytic_gram(joint)
    phi = joint.to_matrix(fixed_purity_state(joint, 0.5, np.random.default_rng(4400)))
    got = []

    def draw(rng, size):
        local, glob = rnd._conjugated_block(rng, size, phi, (na, nb))
        got.append((size, local, glob))
        return local, glob

    rnd._estimate(1500, 4401, draw, None)
    assert [size for size, _, _ in got] == [1024, 476]
    for b, (size, local, glob) in enumerate(got):
        us = grouprep.haar_unitaries(size, na * nb, rnd.sample_rng(4401, b))
        for k in (0, 1, len(us) - 1):
            rho = us[k] @ phi @ us[k].conj().T
            ref_a = rnd.partial_trace(rho, (na, nb))
            assert local[k] == pytest.approx(
                gram_a.norm_sq(part_a.to_coords(ref_a) - part_a.max_mixed), abs=1e-12)
            assert glob[k] == pytest.approx(
                gram_ab.norm_sq(joint.to_coords(rho) - joint.max_mixed), abs=1e-12)
        assert np.ptp(glob) < rnd.GLOBAL_PURITY_TOL
    # The classical group permutes outcomes: each permuted state against
    # marginal_a -> GramMatrix.norm_sq, rebuilt from one rng.permutation per
    # sample on an equal stream.  A mu-interpolated state gives every sample
    # the same local purity, so a generic (Dirichlet) initial state joins it.
    for (na, nb), p0 in itertools.product(((2, 8), (3, 5)), (0.0, 0.3, 1.0, None)):
        comp = _pair(ss.build_classical, na, nb)
        gram_a, gram_ab = grouprep.analytic_gram(comp.part_a), grouprep.analytic_gram(comp.joint)
        k = comp.joint.K
        if p0 is None:
            p = np.random.default_rng(4403).dirichlet(np.ones(k))
        else:
            t = math.sqrt(p0)
            p = np.full(k, (1.0 - t) / k)
            p[0] += t
        got.clear()

        def draw_classical(rng, size):
            local, glob = rnd._classical_block(rng, size, p, na)
            got.append((size, local, glob))
            return local, glob

        rnd._estimate(1500, 4402, draw_classical, None)
        assert [size for size, _, _ in got] == [1024, 476]
        for b, (size, local, glob) in enumerate(got):
            ref = rnd.sample_rng(4402, b)
            for j in range(size):
                omega = p[ref.permutation(k)]
                marg = cm.marginal_a(comp, omega)
                assert abs(local[j] - gram_a.norm_sq(marg - comp.part_a.max_mixed)) <= 1e-15
                assert abs(glob[j] - gram_ab.norm_sq(omega - comp.joint.max_mixed)) <= 1e-15
            if p0 == 0.0:
                assert not local.any() and not glob.any()


def test_classical_memory_check_counts_both_block_arrays(monkeypatch):
    # A 2x8 estimate holds its 16-outcome distribution, then a block of 1024
    # rows of K = 16 and their A marginals of K_A = 2:
    # 8 * (16 + 1024 * (16 + 2)) = 147584 bytes, counted before the distribution.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 147583)
    with pytest.raises(RangeError, match="147584 bytes"):
        rnd.estimate_expected_local_purity("classical", 2, 8, 0.3, 2000, 0)
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 147584)
    rep = rnd.estimate_expected_local_purity("classical", 2, 8, 0.3, 2000, 0)
    assert rep.realized_global_purity == pytest.approx(0.3, abs=1e-9)


def test_blocks_spans_and_streams():
    calls = []

    def draw(rng, size):
        calls.append((size, rng.bit_generator.state))
        return np.full(size, 0.5), 1.0

    rep = rnd._estimate(2500, 9, draw, None)
    assert [size for size, _ in calls] == [1024, 1024, 452]
    for b, (_, state) in enumerate(calls):
        assert state == rnd.sample_rng(9, b).bit_generator.state
    assert (rep.mean, rep.stderr, rep.n_samples) == (0.5, 0.0, 2500)
    assert rep.realized_global_purity == 1.0
    # Bad counts and seeds are refused before any block is drawn.
    calls.clear()
    for n_samples, seed in ((1, 9), (2500, -1)):
        with pytest.raises(RangeError):
            rnd._estimate(n_samples, seed, draw, None)
    assert calls == []


def test_driver_refuses_a_global_purity_spread():
    def draw(rng, size):
        return np.zeros(size), rng.random(size)

    with pytest.raises(InternalError, match="global purity varied"):
        rnd._estimate(100, 0, draw, None)


# -- statistical cross-checks ----------------------------------------------------------------


def test_ket_path_agrees_with_full_unitary_path():
    comp = _pair(ss.build_quantum, 2, 2)
    init = fixed_purity_state(comp.joint, 0.5, np.random.default_rng(5100))
    ket = rnd.estimate_expected_local_purity("quantum", 2, 2, 0.5, 10_000, 5101)
    full = rnd.estimate_expected_local_purity(
        "quantum", 2, 2, 0.5, 10_000, 5102, initial=init)
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
