import itertools
import math

import numpy as np
import pytest

from gptpurity import composite as cm
from gptpurity import faces, grouprep, randomize as rnd, statespace as ss
from gptpurity.errors import EmptyFaceError, InvalidProbeError, RangeError
from gptpurity.purity import purity_from_tr2


@pytest.mark.parametrize("n,sym_dim,anti_dim", [(2, 3, 1), (3, 6, 3), (4, 10, 6)])
def test_face_dimensions(n, sym_dim, anti_dim):
    assert faces.sym_face(n).n_sub == sym_dim
    assert faces.antisym_face(n).n_sub == anti_dim


def test_antisym_of_single_level_is_empty():
    with pytest.raises(EmptyFaceError):
        faces.antisym_face(1)


def test_face_max_mixed_is_valid_state():
    for face in (faces.sym_face(2), faces.antisym_face(3)):
        joint = face.comp.joint
        assert abs(joint.unit(face.mu_face) - 1.0) < 1e-12
        assert joint.cone_contains(face.mu_face)
        pi = face.projector
        np.testing.assert_allclose(
            joint.to_matrix(face.mu_face), pi / np.trace(pi).real, atol=1e-12
        )


# -- the face Bloch projector -----------------------------------------------------------


def _random_traceless_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) * np.eye(d) / d


def test_face_bloch_projector_fixes_in_face_traceless(rng):
    face = faces.sym_face(2)
    v = face.isometry
    sigma = _random_traceless_hermitian(face.n_sub, rng)
    m = v @ sigma @ v.conj().T  # supported on the face, face-trace zero
    np.testing.assert_allclose(faces.face_bloch_projector(face, m), m, atol=1e-12)


def test_face_bloch_projector_kills_orthogonal_block(rng):
    face = faces.sym_face(2)
    pi_perp = np.eye(4) - face.projector
    w = np.linalg.eigh(pi_perp)[1][:, -1]
    m = np.outer(w, w.conj()) - np.eye(4) / 4
    out = faces.face_bloch_projector(face, np.outer(w, w.conj()))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
    del m


def test_face_bloch_projector_idempotent_and_self_adjoint(rng):
    face = faces.sym_face(3)
    joint = face.comp.joint
    gram = grouprep.analytic_gram(joint)
    for _ in range(20):
        m = _random_traceless_hermitian(9, rng)
        once = faces.face_bloch_projector(face, m)
        twice = faces.face_bloch_projector(face, once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        n = _random_traceless_hermitian(9, rng)
        lhs = gram.inner(joint.to_coords(faces.face_bloch_projector(face, m)), joint.to_coords(n))
        rhs = gram.inner(joint.to_coords(m), joint.to_coords(faces.face_bloch_projector(face, n)))
        assert abs(lhs - rhs) < 1e-10


def test_face_states_orthogonal_to_face_max_mixed_bloch(rng):
    # In-face Bloch differences are Gram-orthogonal to the face center's Bloch.
    face = faces.sym_face(2)
    joint = face.comp.joint
    gram = grouprep.analytic_gram(joint)
    mu_f_bloch = face.mu_face - joint.max_mixed
    v = face.isometry
    for _ in range(30):
        psi = rnd.haar_kets(1, face.n_sub, rng)[0]
        rho = v @ np.outer(psi, psi.conj()) @ v.conj().T
        bar = joint.to_coords(rho) - face.mu_face
        assert abs(gram.inner(bar, mu_f_bloch)) < 1e-8


# -- predictions -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_probe_ingredient_symmetric(n):
    face = faces.sym_face(n)
    pred = faces.predict_qface(face, faces.default_probe(n), 1.0)
    assert pred.inputs["probe_trace_sq"] == pytest.approx(n / 4 + 0.5, abs=1e-10)


@pytest.mark.parametrize("n", [3, 4])
def test_probe_ingredient_antisymmetric(n):
    face = faces.antisym_face(n)
    pred = faces.predict_qface(face, faces.default_probe(n), 1.0)
    assert pred.inputs["probe_trace_sq"] == pytest.approx(n / 4 - 0.5, abs=1e-10)


def test_predict_qface_examples():
    assert faces.predict_qface(faces.sym_face(2), faces.default_probe(2), 1.0).value == (
        pytest.approx(3 / 4, abs=1e-12)
    )
    assert faces.predict_qface(faces.antisym_face(2), faces.default_probe(2), 1.0).value == (
        pytest.approx(1 / 2, abs=1e-15)
    )


def test_predict_qface_rejects_bad_probe():
    face = faces.sym_face(2)
    with pytest.raises(InvalidProbeError):
        faces.predict_qface(face, np.eye(2), 1.0)


def test_predict_qface_probe_independence(rng):
    for face in (faces.sym_face(3), faces.antisym_face(3)):
        values = []
        for _ in range(2):
            e = _random_traceless_hermitian(3, rng)
            e = e / math.sqrt(np.trace(e @ e).real)
            values.append(faces.predict_qface(face, e, 0.7).value)
        assert abs(values[0] - values[1]) < 1e-10


def test_predict_qface_full_space_reproduces_main_formula():
    for na, nb in ((2, 2), (2, 3)):
        comp = cm.compose(ss.build_quantum(na), ss.build_quantum(nb))
        face = faces.subspace_face(comp, np.eye(na * nb, dtype=complex))
        pred = faces.predict_qface(face, faces.default_probe(na), 1.0)
        main = rnd.predict_main(na**2, nb**2, na, nb, 1.0).value
        assert purity_from_tr2(na, pred.value) == pytest.approx(main, abs=1e-12)


@pytest.mark.parametrize(
    "n,sign,expected",
    [(3, 1, 4 / 7), (3, -1, 1 / 2), (2, 1, 3 / 4), (2, -1, 1 / 2), (4, 1, 5 / 11)],
)
def test_predict_symm_pure_values(n, sign, expected):
    assert faces.predict_symm(n, sign, 1.0).value == pytest.approx(expected, abs=1e-14)


def test_predict_symm_face_max_mixed_gives_max_mixed_marginal():
    # At the face-maximally-mixed global state (Tr = 1/3 for n = 2 sym), the
    # marginal must be maximally mixed: Tr rho_A^2 = 1/2.
    assert faces.predict_symm(2, 1, 1 / 3).value == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n,sign,trp", [
    (3, 1, 5.0), (3, 1, float("nan")), (3, 1, float("inf")), (3, -1, 0.3), (2, -1, 0.9),
])
def test_predict_symm_refuses_purities_outside_the_face_range(n, sign, trp):
    with pytest.raises(RangeError):
        faces.predict_symm(n, sign, trp)


def test_face_estimate_refuses_a_nan_target():
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(faces.sym_face(2), float("nan"), 100, 1)


def test_predict_symm_consistent_with_qface():
    for n in (2, 3, 4):
        for sign, face in ((1, faces.sym_face(n)), (-1, faces.antisym_face(n))):
            if face.n_sub == 1:
                continue
            for trp in (1.0, 0.6):
                a = faces.predict_symm(n, sign, trp).value
                b = faces.predict_qface(face, faces.default_probe(n), trp).value
                assert abs(a - b) < 1e-12


# -- estimation -------------------------------------------------------------------------


def test_estimate_sym_face_two_levels():
    rep = faces.estimate_face_local_purity(faces.sym_face(2), 1.0, 4000, 17)
    assert abs(rep.mean - 0.75) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-12)


def test_estimate_antisym_two_levels_exact_half():
    rep = faces.estimate_face_local_purity(faces.antisym_face(2), 1.0, 200, 23)
    assert rep.mean == pytest.approx(0.5, abs=1e-12)
    assert rep.stderr <= 1e-12


def test_estimate_face_rejects_unreachable_purity():
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(faces.sym_face(2), 0.2, 10, 1)  # below 1/3
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(faces.antisym_face(2), 0.9, 10, 1)


def test_maximally_entangled_singleton_face_smoke():
    comp = cm.compose(ss.build_quantum(2), ss.build_quantum(2))
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    face = faces.subspace_face(comp, np.outer(psi, psi).astype(complex))
    rep = faces.estimate_face_local_purity(face, 1.0, 50, 2)
    assert rep.mean == pytest.approx(0.5, abs=1e-12)


def test_classical_support_face_estimator_matches_restricted_purity():
    comp = cm.compose(ss.build_classical(2), ss.build_classical(4))
    support = np.array([0, 1, 4, 5])  # two env strings per coin value
    face = faces.classical_support_face(comp, support)
    rep = faces.estimate_face_local_purity(face, 1.0, 400, 3)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)


# -- coin with record ---------------------------------------------------------------------


def test_coin_with_record_quarter():
    res = faces.coin_with_record(4, 6000, 29)
    assert res.prediction.value == pytest.approx(1 / 7, abs=1e-15)
    assert abs(res.report.mean - 1 / 7) <= 3 * res.report.stderr + 1e-12


def test_coin_with_record_single_string_never_randomizes():
    res = faces.coin_with_record(1, 300, 7)
    assert res.prediction.value == 1.0
    assert res.report.mean == pytest.approx(1.0, abs=1e-12)
    assert res.report.stderr == pytest.approx(0.0, abs=1e-15)


def test_coin_with_record_prediction_equals_face_restricted_purity():
    # The prediction must equal the initial state's purity computed on the face.
    for s0 in (1, 2, 4, 8):
        n_b = 2 * s0
        comp = cm.compose(ss.build_classical(2), ss.build_classical(n_b))
        support = np.concatenate([np.arange(s0), n_b + s0 + np.arange(s0)])
        face = faces.classical_support_face(comp, support)
        initial = np.zeros(comp.joint.K)
        initial[np.arange(s0)] = 1.0 / s0
        res = faces.coin_with_record(s0, 10, 1)
        assert res.prediction.value == pytest.approx(
            faces.face_restricted_purity(face, initial), abs=1e-14
        )


@pytest.mark.parametrize("s0", range(1, 13))
def test_coin_record_sigma_is_the_hypergeometric_purity_spread(s0):
    # A sample is (2k/s0 - 1)^2 with k ~ Hypergeometric(2 s0, s0, s0).
    from fractions import Fraction

    pmf = [Fraction(math.comb(s0, k) ** 2, math.comb(2 * s0, s0)) for k in range(s0 + 1)]
    purity = [Fraction(2 * k - s0, s0) ** 2 for k in range(s0 + 1)]
    mean = sum(w * v for w, v in zip(pmf, purity))
    var = sum(w * v * v for w, v in zip(pmf, purity)) - mean * mean
    assert mean == Fraction(1, 2 * s0 - 1)
    assert faces.coin_record_sigma(s0) == pytest.approx(math.sqrt(var), rel=1e-14, abs=0.0)
    assert (faces.coin_record_sigma(s0) == 0.0) == (s0 == 1)


def test_coin_with_record_rejects_empty_record():
    with pytest.raises(RangeError):
        faces.coin_with_record(0, 10, 1)


def test_classical_face_estimator_tracks_face_restricted_target():
    # The expected marginal purity equals the face-restricted global purity,
    # so the mean must track the requested target at every level.
    comp = cm.compose(ss.build_classical(2), ss.build_classical(4))
    face = faces.classical_support_face(comp, np.array([0, 1, 4, 5]))
    for target, seed in ((0.5, 31), (0.2, 33)):
        rep = faces.estimate_face_local_purity(face, target, 2000, seed)
        assert rep.realized_global_purity == pytest.approx(target, abs=1e-12)
        assert abs(rep.mean - target) <= 3 * rep.stderr + 1e-12
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(face, 1.2, 10, 1)


def test_support_face_estimate_tracks_the_target_in_any_support_order():
    # The support is ordered by A outcome once, before the draws; a support
    # given out of that order must give the same law.
    comp = cm.compose(ss.build_classical(2), ss.build_classical(4))
    face = faces.classical_support_face(comp, np.array([5, 0, 6, 1, 4]))
    rep = faces.estimate_face_local_purity(face, 0.5, 2000, 37)
    assert rep.realized_global_purity == pytest.approx(0.5, abs=1e-12)
    # The A marginal of a uniform permutation of p over three A = 1 and two
    # A = 0 outcomes; its exact mean is taken over all 5! orders.
    t = math.sqrt(0.5)
    p = np.full(5, (1 - t) / 5)
    p[0] += t
    marginals = [(p[list(perm[:2])].sum(), p[list(perm[2:])].sum())
                 for perm in itertools.permutations(range(5))]
    exact = np.mean([2 * ((a0 - 0.5) ** 2 + (a1 - 0.5) ** 2) for a0, a1 in marginals])
    assert abs(rep.mean - exact) <= 3 * rep.stderr + 1e-12


def test_classical_support_face_validates_support():
    comp = cm.compose(ss.build_classical(2), ss.build_classical(2))
    with pytest.raises(RangeError):
        faces.classical_support_face(comp, np.array([0, 0]))
    with pytest.raises(RangeError):
        faces.classical_support_face(comp, np.array([0, 9]))
    with pytest.raises(RangeError):
        faces.classical_support_face(comp, np.array([], dtype=int))


def tilted_face(n):
    """A face of C^2 (x) C^n on a random n-dimensional subspace, whose A marginal
    of mu is not I/2 (the (anti)symmetric faces have sigma_A = I/n)."""
    g = np.random.default_rng(5302).normal(size=(2 * n, n, 2)) @ [1, 1j]
    q = np.linalg.qr(g)[0]
    return faces.subspace_face(cm.compose(ss.build_quantum(2), ss.build_quantum(n)),
                               q @ q.conj().T)


@pytest.mark.parametrize("make", [faces.sym_face, faces.antisym_face, tilted_face])
def test_face_ket_kernel_matches_explicit_route(make):
    # The in-face ket goes through the isometry; the explicit route builds
    # rho, then partial_trace -> to_coords -> GramMatrix.norm_sq.
    face = make(3)
    part_a = face.comp.part_a
    n_s, v, t = face.n_sub, face.isometry, math.sqrt(0.5)
    dims = (part_a.level, face.comp.part_b.level)
    gram_a = grouprep.analytic_gram(part_a)
    psi = rnd.haar_kets(3, n_s, np.random.default_rng(5301))
    sigma_a = rnd.partial_trace(face.projector, dims) / n_s
    if make is tilted_face:
        assert np.max(np.abs(sigma_a - np.eye(dims[0]) / dims[0])) > 0.01
    collision, tr2 = rnd._haar_ket_block(np.random.default_rng(5301), 3, t, dims, isometry=v,
                                         sigma_a=sigma_a)
    local = purity_from_tr2(dims[0], collision)
    for k, ket in enumerate(psi):
        sigma = t * np.outer(ket, ket.conj()) + (1 - t) * np.eye(n_s) / n_s
        rho = v @ sigma @ v.conj().T
        ref_a = rnd.partial_trace(rho, dims)
        assert local[k] == pytest.approx(
            gram_a.norm_sq(part_a.to_coords(ref_a) - part_a.max_mixed), abs=1e-12)
        assert collision[k] == pytest.approx(np.trace(ref_a @ ref_a).real, abs=1e-12)
        assert tr2[k] == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)