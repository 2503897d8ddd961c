import itertools
import json
import math

import numpy as np
import pytest

from gptpurity import composite as cm
from gptpurity import grouprep, randomize as rnd, statespace as ss
from gptpurity.errors import (
    DegenerateCompositeError,
    InternalError,
    RangeError,
    UndefinedRatioError,
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
    comp = _pair(ss.build_quantum, 2, 2)
    pred = rnd.predict_general(comp, 1.0)
    assert pred.value == pytest.approx(3 / 5, abs=1e-10)


def test_predict_general_classical_identity():
    comp = _pair(ss.build_classical, 3, 3)
    assert rnd.predict_general(comp, 0.5).value == pytest.approx(0.5, abs=1e-10)


def test_predict_general_quantum_2x4():
    comp = _pair(ss.build_quantum, 2, 4)
    assert rnd.predict_general(comp, 1.0).value == pytest.approx(1 / 3, abs=1e-10)


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
    pair = rnd.real_quantum_pair(2, 2)
    assert pair.k_a == 3 and pair.k_ab == 10
    assert pair.p_phi_mu == pytest.approx(1 / 3, abs=1e-12)
    assert pair.mu_c_norm_sq == pytest.approx(0.0, abs=1e-12)
    pred = rnd.predict_nonlocaltomo(pair.k_a, pair.k_ab, 1.0, pair.p_phi_mu, pair.mu_c_norm_sq)
    assert pred.value == pytest.approx(2 / 3, abs=1e-12)
    # Equivalent collision value matches the sphere-moment oracle.
    assert tr2_from_purity(2, pred.value) == pytest.approx(
        _sphere_moment_expected_tr2(2, 2), abs=1e-12
    )


def test_predict_nonlocaltomo_reduces_to_general_when_tomographic():
    comp = _pair(ss.build_quantum, 2, 2)
    phimu = cm.purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint),
                                          tol=1e-10).numeric
    pred = rnd.predict_nonlocaltomo(4, 16, 1.0, phimu, 0.0)
    assert pred.value == pytest.approx(rnd.predict_general(comp, 1.0).value, abs=1e-12)


def test_predict_nonlocaltomo_edge_cases():
    assert rnd.predict_nonlocaltomo(3, 10, 0.0, 1 / 3, 0.0).value == 0.0
    with pytest.raises(DegenerateCompositeError):
        rnd.predict_nonlocaltomo(3, 10, 1.0, 0.2, 0.5)


# -- estimator -------------------------------------------------------------------------


def test_estimator_quantum_2x2_matches_prediction():
    comp = _pair(ss.build_quantum, 2, 2)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 4000, 101)
    assert abs(rep.mean - 0.6) <= 3 * rep.stderr
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-9)


def test_estimator_classical_pure_marginals_exactly_one():
    comp = _pair(ss.build_classical, 2, 8)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 500, 11)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_estimator_classical_mixed_transfers_ignorance():
    # The mu-interpolated initial state makes every sample's marginal purity
    # exactly P0 here, so the band degenerates to float roundoff.
    comp = _pair(ss.build_classical, 2, 8)
    rep = rnd.estimate_expected_local_purity(comp, 0.3, 6000, 13)
    assert abs(rep.mean - 0.3) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(0.3, abs=1e-9)


def test_estimator_seed_determinism_and_worker_independence():
    comp = _pair(ss.build_quantum, 2, 2)
    kw = dict(p0=0.5, n_samples=600, seed=77)
    a = rnd.estimate_expected_local_purity(comp, **kw)
    b = rnd.estimate_expected_local_purity(comp, **kw)
    c = rnd.estimate_expected_local_purity(comp, **kw)
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
        comp, p0, 4000, 21, initial=init1)
    rep2 = rnd.estimate_expected_local_purity(
        comp, p0, 4000, 22, initial=init2)
    sigma = math.hypot(rep1.stderr, rep2.stderr)
    assert abs(rep1.mean - rep2.mean) <= 3 * sigma


def test_estimator_histogram_counts_sum_to_samples():
    comp = _pair(ss.build_quantum, 2, 2)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 300, 3)
    assert rep.histogram_counts.sum() == 300
    assert len(rep.histogram_edges) == len(rep.histogram_counts) + 1


def test_real_quantum_estimator_matches_sphere_oracle():
    rep = rnd.estimate_real_quantum_local_purity(2, 2, 1.0, 4000, 31)
    tr_mean = tr2_from_purity(2, rep.mean)
    tr_sigma = rep.stderr / 2  # d(tr)/d(P) = (n-1)/n = 1/2
    assert abs(tr_mean - 5 / 6) <= 3 * tr_sigma


# -- qubit oracle ---------------------------------------------------------------------


def test_qubit_oracle_one_one_pure():
    res = rnd.qubit_pauli_oracle(1, 1, 1.0, 6000, 41)
    assert res.rhs == pytest.approx(0.4, abs=1e-15)
    assert abs(res.lhs - res.rhs) <= 3 * res.lhs_stderr
    # Lubkin-style oracle: E Tr rho_A^2 = (N_A + N_B)/(N_A N_B + 1) = 4/5.
    sigma_tr = res.lhs_stderr * (1.0 - 0.25)
    assert abs(res.mean_tr_a - 4 / 5) <= 3 * sigma_tr


def test_qubit_oracle_one_two_rhs():
    res = rnd.qubit_pauli_oracle(1, 2, 1.0, 100, 1)
    assert res.rhs == pytest.approx(4 / 21, abs=1e-15)


def test_qubit_oracle_consistency_triangle():
    # The ratio identity, converted through the purity conversion, must agree
    # with the main formula to machine precision.
    for n_a, n_b in ((1, 1), (1, 2), (2, 1)):
        na, nb = 2**n_a, 2**n_b
        n = na * nb
        rhs = 2.0**n_b * (4.0**n_a - 1) / (4.0 ** (n_a + n_b) - 1)
        main = rnd.predict_main(na**2, nb**2, na, nb, 1.0).value
        # E Tr rho_A^2 for a pure global state via the ratio identity:
        tr_a = 1 / na + rhs * (1.0 - 1.0 / n)
        assert purity_from_tr2(na, tr_a) == pytest.approx(main, abs=1e-12)


def test_qubit_oracle_rejects_degenerate_input():
    with pytest.raises(UndefinedRatioError):
        rnd.qubit_pauli_oracle(1, 1, 0.25, 10, 1)
    with pytest.raises(RangeError):
        rnd.qubit_pauli_oracle(1, 1, 1.2, 10, 1)


# -- Markov tail -------------------------------------------------------------------------


def test_markov_tail_quantum_2x8():
    comp = _pair(ss.build_quantum, 2, 8)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 4000, 51)
    res = rnd.markov_tail_check(rep, 5.0)
    assert res.passed
    assert res.bound == pytest.approx(5 * rep.mean)


def test_markov_tail_degenerate_classical():
    comp = _pair(ss.build_classical, 2, 2)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 200, 5)
    res = rnd.markov_tail_check(rep, 2.0)
    assert res.empirical == pytest.approx(1.0)
    assert res.bound >= 1.0
    assert res.passed


def test_markov_tail_rejects_bad_inputs():
    comp = _pair(ss.build_classical, 2, 2)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 50, 5)
    with pytest.raises(RangeError):
        rnd.markov_tail_check(rep, 0.5)
    bare = rnd.estimate_expected_local_purity(
        comp, 1.0, 50, 5, histogram_bins=None)
    with pytest.raises(RangeError):
        rnd.markov_tail_check(bare, 2.0)


def test_report_serialization_roundtrip():
    comp = _pair(ss.build_classical, 2, 4)
    rep = rnd.estimate_expected_local_purity(comp, 0.5, 100, 9)
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
        comp = _pair(ss.build_quantum, na, nb)
        rep = rnd.estimate_expected_local_purity(comp, p0, 4000, 61)
        expected = rnd.predict_main(na * na, nb * nb, na, nb, p0).value
    else:
        rep = rnd.estimate_real_quantum_local_purity(na, nb, p0, 4000, 61)
        pair = rnd.real_quantum_pair(na, nb)
        expected = rnd.predict_nonlocaltomo(pair.k_a, pair.k_ab, p0, pair.p_phi_mu,
                                            pair.mu_c_norm_sq).value
    assert abs(rep.mean - expected) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(p0, abs=1e-9)
    if p0 == 0.0:
        # A maximally mixed global state has exactly zero purity, globally and locally.
        assert (rep.mean, rep.stderr, rep.realized_global_purity) == (0.0, 0.0, 0.0)
        assert json.dumps(rep.to_json_dict()["mean"]) == "0.0"


def test_estimator_quantum_asymmetric_parts():
    # 2x3: prediction (K_A-1)/(K_A K_B - 1) * (N_A N_B - 1)/(N_A - 1) = 3/7.
    comp = _pair(ss.build_quantum, 2, 3)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 4000, 71)
    expected = rnd.predict_main(4, 9, 2, 3, 1.0).value
    assert expected == pytest.approx(3 / 7, abs=1e-14)
    assert abs(rep.mean - expected) <= 3 * rep.stderr + 1e-12


def test_estimator_classical_asymmetric_parts():
    comp = _pair(ss.build_classical, 3, 5)
    rep = rnd.estimate_expected_local_purity(comp, 0.4, 4000, 73)
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


def test_nonlocaltomo_asymmetric_real_quantum_agrees_with_oracle():
    pair = rnd.real_quantum_pair(2, 3)
    assert pair.k_ab == 21
    assert pair.p_phi_mu == pytest.approx(1 / 5, abs=1e-12)
    pred = rnd.predict_nonlocaltomo(pair.k_a, pair.k_ab, 1.0, pair.p_phi_mu, pair.mu_c_norm_sq)
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
            comp, 0.5, 10, 1, initial=init)


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
        psi = ss.haar_kets(3, n, np.random.default_rng(5300), real=real)
        local, glob = rnd._haar_ket_block(np.random.default_rng(5300), 3, t, (na, nb), real=real)
        for k, ket in enumerate(psi):
            rho = t * np.outer(ket, ket.conj()) + (1 - t) * np.eye(n) / n
            ref_a = cm.partial_trace(rho, (na, nb), keep=0)
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
            ref_a = cm.partial_trace(rho, (na, nb), keep=0)
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
    # A 2x8 block holds 1024 rows of K = 16 and their A marginals of K_A = 2:
    # 8 * 1024 * (16 + 2) = 147456 bytes.
    comp = _pair(ss.build_classical, 2, 8)
    monkeypatch.setattr(ss, "MEMORY_CAP_BYTES", 147455)
    with pytest.raises(RangeError, match="147456 bytes"):
        rnd.estimate_expected_local_purity(comp, 0.3, 2000, 0)
    monkeypatch.setattr(ss, "MEMORY_CAP_BYTES", 147456)
    rep = rnd.estimate_expected_local_purity(comp, 0.3, 2000, 0)
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
    ket = rnd.estimate_expected_local_purity(comp, 0.5, 10_000, 5101)
    full = rnd.estimate_expected_local_purity(
        comp, 0.5, 10_000, 5102, initial=init)
    assert full.realized_global_purity == pytest.approx(0.5, abs=1e-9)
    assert abs(ket.mean - full.mean) <= 3 * math.hypot(ket.stderr, full.stderr)


@pytest.mark.parametrize("nb,seed", [(4, 5201), (8, 5202)])
def test_estimator_matches_page_average_purity(nb, seed):
    # Lubkin (1978) / Page (1993): E Tr rho_A^2 = (m + n)/(mn + 1) for a
    # Haar-random pure state on C^m (x) C^n.
    na = 4
    comp = _pair(ss.build_quantum, na, nb)
    rep = rnd.estimate_expected_local_purity(comp, 1.0, 10_000, seed)
    page = (na + nb) / (na * nb + 1)
    tr_sigma = rep.stderr * (na - 1) / na  # d(tr)/d(P) = (n-1)/n
    assert abs(tr2_from_purity(na, rep.mean) - page) <= 3 * tr_sigma
