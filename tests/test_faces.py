import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gptpurity import blocks, cli, faces, formulas, randomize
from gptpurity.errors import RangeError
from reference import InvalidProbeError, grouprep
from reference.purity import purity_from_tr2
import haar
from states import (cone_contains, default_probe, face_bloch_projector, face_composite, isometry,
                    mu_face, qface_by_isometry, unit)


@pytest.mark.parametrize("n,sym_dim,anti_dim", [(2, 3, 1), (3, 6, 3), (4, 10, 6)])
def test_face_dimensions(n, sym_dim, anti_dim):
    for sign, n_s in ((1, sym_dim), (-1, anti_dim)):
        assert formulas.predict_qface(n, sign, 1.0).inputs["N_S"] == n_s
        assert isometry(n, sign).shape == (n * n, n_s)


def test_antisym_of_single_level_is_empty(capsys):
    # The estimator and both predictions refuse the empty face through one check.
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(1, -1, 1.0, 10, 1)
    for predict in (formulas.predict_symm, formulas.predict_qface):
        with pytest.raises(RangeError, match="antisymmetric subspace of one level is empty"):
            predict(1, -1, 1.0)
    assert cli.main(["predict", "symm", "--n", "1", "--sign", "-", "--trp", "1"]) == 1
    assert capsys.readouterr().err == (
        "gptpurity: error: the antisymmetric subspace of one level is empty\n")


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_a_sign_other_than_plus_or_minus_one_is_refused(sign):
    # The command line reads only + and -; the one face check refuses any other sign.
    for call in (lambda: faces.estimate_face_local_purity(3, sign, 1.0, 10, 1),
                 lambda: formulas.predict_symm(3, sign, 1.0),
                 lambda: formulas.predict_qface(3, sign, 1.0)):
        with pytest.raises(RangeError, match=f"^sign must be \\+1 or -1, got {sign}$"):
            call()


def _partial_trace(rho, dims):
    """The A marginal Tr_B of a (d_a d_b) square matrix."""
    da, db = dims
    return np.einsum("ibjb->ij", rho.reshape(da, db, da, db))


def _swap(n):
    """SWAP on C^n (x) C^n: |i j> (index n i + j) goes to |j i>."""
    i, j = np.divmod(np.arange(n * n), n)
    s = np.zeros((n * n, n * n))
    s[n * j + i, n * i + j] = 1.0
    return s


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_swap_face_basis_is_orthonormal_and_swap_covariant(n, sign):
    v = isometry(n, sign)
    n_s = v.shape[1]
    assert n_s == n * (n + sign) // 2
    np.testing.assert_allclose(v.T @ v, np.eye(n_s), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(_swap(n) @ v, sign * v)
    np.testing.assert_allclose(v @ v.T, (np.eye(n * n) + sign * _swap(n)) / 2, rtol=0, atol=1e-15)
    # The subspace is U (x) U invariant, so the A marginal of its mu is I/n,
    # which the face kernel takes instead of forming it.
    np.testing.assert_allclose(_partial_trace(v @ v.T, (n, n)) / n_s, np.eye(n) / n,
                               rtol=0, atol=1e-15)


def _kernel_kets(monkeypatch, size, dims, real=False, swap=None):
    """The samples-last kets ``_haar_ket_block`` hands its pair sums, joined over its slices."""
    slices, gram_traces = [], blocks._gram_traces
    monkeypatch.setattr(blocks, "_gram_traces",
                        lambda rows: slices.append(rows) or gram_traces(rows))
    blocks._haar_ket_block(np.random.default_rng(5303), size, 1.0, dims, real=real, swap=swap)
    return np.concatenate(slices, axis=-1)


def _assert_samples_last(kets, rows, dims):
    """``rows`` are ``kets`` (parts, size, n_A n_B) as M, or M^T when n_A > n_B, samples last."""
    m = kets.reshape(*kets.shape[:2], *dims)
    if dims[0] > dims[1]:
        m = m.swapaxes(2, 3)
    expected = m.transpose(2, 0, 3, 1)
    assert rows.shape == expected.shape
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


# 1000 samples end in a partial slice.
_SIZES = (3, 1000, 1024)


@pytest.mark.parametrize("dims,real", [((2, 8), False), ((8, 2), False), ((2, 3), True)],
                         ids=["quantum 2x8", "quantum 8x2", "real 2x3"])
def test_kernel_kets_are_the_reference_draw_bit_for_bit(monkeypatch, dims, real):
    # The kernel lays its kets out one slice at a time straight into
    # (k, parts, L, size) rows: they must be the reference draw's unit kets.
    for size in _SIZES:
        kets = haar._unit_kets(np.random.default_rng(5303), size, dims[0] * dims[1], real)
        _assert_samples_last(kets, _kernel_kets(monkeypatch, size, dims, real), dims)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", range(2, 9))
def test_face_kets_are_the_dense_column_sum_bit_for_bit(monkeypatch, n, sign):
    # A face's kets, laid out as n x n matrices one slice at a time, are the
    # dense column sum V z of the reference draw in column order: each row of
    # V has at most one nonzero entry, so the sum adds only +-0.0 to it and
    # gives the same bits.
    v = isometry(n, sign)
    for size in _SIZES:
        z = haar._unit_kets(np.random.default_rng(5303), size, v.shape[1], False)
        kets = np.zeros((2, size, n * n))
        for c, col in enumerate(v.T):
            kets += z[:, :, c, None] * col
        _assert_samples_last(kets, _kernel_kets(monkeypatch, size, (n, n), swap=sign), (n, n))


def test_face_max_mixed_is_valid_state():
    for n, sign in ((2, 1), (3, -1)):
        joint = face_composite(n).joint
        assert abs(unit(joint, mu_face(n, sign)) - 1.0) < 1e-12
        assert cone_contains(joint, mu_face(n, sign))
        pi = isometry(n, sign) @ isometry(n, sign).conj().T
        np.testing.assert_allclose(
            joint.to_matrix(mu_face(n, sign)), pi / np.trace(pi).real, atol=1e-12
        )


# -- the face Bloch projector -----------------------------------------------------------


def _random_traceless_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) * np.eye(d) / d


def test_face_bloch_projector_fixes_in_face_traceless(rng):
    v = isometry(2, 1)
    sigma = _random_traceless_hermitian(v.shape[1], rng)
    m = v @ sigma @ v.conj().T  # supported on the face, face-trace zero
    np.testing.assert_allclose(face_bloch_projector(2, 1, m), m, atol=1e-12)


def test_face_bloch_projector_kills_orthogonal_block():
    # The singlet spans the antisymmetric subspace, orthogonal to the symmetric face.
    w = isometry(2, -1)[:, 0]
    out = face_bloch_projector(2, 1, np.outer(w, w.conj()))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_face_bloch_projector_idempotent_and_self_adjoint(rng):
    joint = face_composite(3).joint
    gram = grouprep.analytic_gram(joint)
    for _ in range(20):
        m = _random_traceless_hermitian(9, rng)
        once = face_bloch_projector(3, 1, m)
        twice = face_bloch_projector(3, 1, once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        n = _random_traceless_hermitian(9, rng)
        lhs = gram.inner(joint.to_coords(face_bloch_projector(3, 1, m)), joint.to_coords(n))
        rhs = gram.inner(joint.to_coords(m), joint.to_coords(face_bloch_projector(3, 1, n)))
        assert abs(lhs - rhs) < 1e-10


def test_face_states_orthogonal_to_face_max_mixed_bloch(rng):
    # In-face Bloch differences are Gram-orthogonal to the face center's Bloch.
    joint = face_composite(2).joint
    gram = grouprep.analytic_gram(joint)
    mu_f = mu_face(2, 1)
    mu_f_bloch = mu_f - joint.max_mixed
    v = isometry(2, 1)
    for _ in range(30):
        psi = haar.haar_kets(1, v.shape[1], rng)[0]
        rho = v @ np.outer(psi, psi.conj()) @ v.conj().T
        bar = joint.to_coords(rho) - mu_f
        assert abs(gram.inner(bar, mu_f_bloch)) < 1e-8


# -- predictions -----------------------------------------------------------------------


# Up to 2^62 the ingredient is (n + 2 sign)/4, correctly rounded, with no sum to refuse.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 10**6, 2**62])
def test_probe_ingredient_symmetric(n):
    pred = formulas.predict_qface(n, 1, 1.0)
    assert pred.inputs["probe_trace_sq"] == float(Fraction(n + 2, 4))


@pytest.mark.parametrize("n", [3, 4, 5, 64, 10**6, 2**62])
def test_probe_ingredient_antisymmetric(n):
    pred = formulas.predict_qface(n, -1, 1.0)
    assert pred.inputs["probe_trace_sq"] == float(Fraction(n - 2, 4))


def test_predict_qface_examples():
    assert formulas.predict_qface(2, 1, 1.0).value == pytest.approx(3 / 4, abs=1e-12)
    assert formulas.predict_qface(2, -1, 1.0).value == pytest.approx(1 / 2, abs=1e-15)


def test_qface_reference_rejects_bad_probe():
    for probe in (
        np.eye(2),  # Tr E = 2
        np.diag([1.0, 0.0, -1.0]) / math.sqrt(2),  # 3 x 3 on a face of two-level parts
        np.array([[0.0, 1.0], [0.5, 0.0]]),  # Tr E = 0 and Tr E^2 = 1, but not Hermitian
    ):
        with pytest.raises(InvalidProbeError):
            qface_by_isometry(2, 1, probe, 1.0)


def test_predict_qface_probe_independence(rng):
    # The closed-form ingredient against the dense isometry route, on the
    # fixed probe and on random complex Hermitian probes: the ingredient does
    # not depend on the probe.
    for n, sign in itertools.product(range(2, 7), (1, -1)):
        probes = [default_probe(n)]
        for _ in range(3):
            e = _random_traceless_hermitian(n, rng)
            probes.append(e / math.sqrt(np.trace(e @ e).real))
        # Tr rho^2 = 1 is the only purity on the one-state antisymmetric face of n = 2.
        for trp in (1.0,) if (n, sign) == (2, -1) else (1.0, 0.7):
            pred = formulas.predict_qface(n, sign, trp)
            for e in probes:
                value, ingredient = qface_by_isometry(n, sign, e, trp)
                assert abs(pred.value - value) <= 1e-12
                assert abs(pred.inputs["probe_trace_sq"] - ingredient) <= 1e-12


@pytest.mark.parametrize(
    "n,sign,expected",
    [(3, 1, 4 / 7), (3, -1, 1 / 2), (2, 1, 3 / 4), (2, -1, 1 / 2), (4, 1, 5 / 11)],
)
def test_predict_symm_pure_values(n, sign, expected):
    assert formulas.predict_symm(n, sign, 1.0).value == pytest.approx(expected, abs=1e-14)


def test_predict_symm_face_max_mixed_gives_max_mixed_marginal():
    # At the face-maximally-mixed global state (Tr = 1/3 for n = 2 sym), the
    # marginal must be maximally mixed: Tr rho_A^2 = 1/2.
    assert formulas.predict_symm(2, 1, 1 / 3).value == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n,sign,trp", [
    (3, 1, 5.0), (3, 1, float("nan")), (3, 1, float("inf")), (3, -1, 0.3), (2, -1, 0.9),
])
def test_predict_symm_refuses_purities_outside_the_face_range(n, sign, trp):
    with pytest.raises(RangeError):
        formulas.predict_symm(n, sign, trp)


def test_face_estimate_refuses_a_nan_target():
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(2, 1, float("nan"), 100, 1)


def test_predict_symm_consistent_with_qface():
    # To 1e-15 relative at every count up to 2^62, at Tr rho^2 = 1, 0.5 and
    # 1/N_S (only 1 on the one-state face of n = 2, sign -1).
    for n, sign in itertools.product([*range(2, 65), 10**6, 2**62], (1, -1)):
        n_s = n * (n + sign) // 2
        for trp in {1.0, max(0.5, 1 / n_s), 1 / n_s}:
            a = formulas.predict_symm(n, sign, trp).value
            b = formulas.predict_qface(n, sign, trp).value
            assert abs(a - b) <= 1e-15 * a, (n, sign, trp)


# -- estimation -------------------------------------------------------------------------


def test_estimate_sym_face_two_levels():
    rep = faces.estimate_face_local_purity(2, 1, 1.0, 4000, 17)
    assert abs(rep.mean - 0.75) <= 3 * rep.stderr + 1e-12
    assert rep.realized_global_purity == pytest.approx(1.0, abs=1e-12)


def test_estimate_antisym_two_levels_exact_half():
    rep = faces.estimate_face_local_purity(2, -1, 1.0, 200, 23)
    assert rep.mean == 0.5
    assert rep.stderr == 0.0


def test_estimate_face_rejects_unreachable_purity():
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(2, 1, 0.2, 10, 1)  # below 1/3
    with pytest.raises(RangeError):
        faces.estimate_face_local_purity(2, -1, 0.9, 10, 1)


# -- coin with record ---------------------------------------------------------------------


def test_coin_with_record_quarter():
    rep = faces.coin_with_record(4, 6000, 29)
    assert formulas.predict_coin_record(4).value == pytest.approx(1 / 7, abs=1e-15)
    assert abs(rep.mean - 1 / 7) <= 3 * rep.stderr + 1e-12


def test_coin_with_record_single_string_never_randomizes():
    rep = faces.coin_with_record(1, 300, 7)
    assert formulas.predict_coin_record(1).value == 1.0
    assert rep.mean == pytest.approx(1.0, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-15)


def test_coin_with_record_prediction_equals_face_restricted_purity():
    # The prediction must equal the initial state's purity computed on the face:
    # n/(n-1) |p - 1/n|^2 over the n = 2 s0 support outcomes, p uniform on S_0.
    for s0 in (1, 2, 4, 8):
        n = 2 * s0
        p = np.zeros(n)
        p[:s0] = 1.0 / s0
        face_purity = n / (n - 1) * float(np.sum((p - 1.0 / n) ** 2))
        assert formulas.predict_coin_record(s0).value == pytest.approx(face_purity, abs=1e-14)


def _coin_record_moments(s0):
    """Exact mean and variance of one recorded-coin sample, as fractions.

    A sample is (2k/s0 - 1)^2 with k ~ Hypergeometric(2 s0, s0, s0): a uniform
    permutation of the 2 s0 support outcomes sends k of the s0 occupied
    strings to coin value 0.
    """
    pmf = [Fraction(math.comb(s0, k) ** 2, math.comb(2 * s0, s0)) for k in range(s0 + 1)]
    purity = [Fraction(2 * k - s0, s0) ** 2 for k in range(s0 + 1)]
    mean = sum(w * v for w, v in zip(pmf, purity))
    return mean, sum(w * v * v for w, v in zip(pmf, purity)) - mean * mean


@pytest.mark.parametrize("s0", [2, 4, 9, 33])
def test_coin_with_record_is_the_free_two_by_s0_classical_estimate(s0):
    # The recorded coin randomizes like a free 2 x s0 classical joint started
    # from the pure coin times the uniform mixture over S_0, whose exact mean
    # is the hypergeometric one; the estimate lies within 3 sigma / sqrt(n).
    n = 10_000
    rep = faces.coin_with_record(s0, n, 1)
    assert rep.n_samples == n
    mean = float(_coin_record_moments(s0)[0])
    assert abs(rep.mean - mean) <= 3 * formulas.coin_record_sigma(s0) / math.sqrt(n)


@pytest.mark.parametrize("s0", range(1, 13))
def test_coin_record_sigma_is_the_hypergeometric_purity_spread(s0):
    mean, var = _coin_record_moments(s0)
    assert mean == Fraction(1, 2 * s0 - 1)
    assert formulas.coin_record_sigma(s0) == pytest.approx(math.sqrt(var), rel=1e-14, abs=0.0)
    assert (formulas.coin_record_sigma(s0) == 0.0) == (s0 == 1)


def test_coin_with_record_rejects_empty_record(monkeypatch, capsys):
    # The estimate, its value and its spread refuse an empty record set by one
    # check, and the command refuses it in one line before any draw.
    monkeypatch.setattr(randomize, "sample_rng", lambda seed, index: pytest.fail("drew"))
    for s0 in (0, -3):
        message = f"the record set needs at least one string, got {s0}"
        with pytest.raises(RangeError, match=message):
            faces.coin_with_record(s0, 10, 1)
        for formula in (formulas.predict_coin_record, formulas.coin_record_sigma):
            with pytest.raises(RangeError, match=message):
                formula(s0)
        assert cli.main(["coin-record", "--s0", str(s0), "--samples", "10", "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", f"gptpurity: error: {message}\n")


# The wide symmetric face, of C^9 (x) C^9, has a W of k = 9 > 8 rows.
@pytest.mark.parametrize("n,sign", [pytest.param(3, 1, id="sym_face"),
                                    pytest.param(3, -1, id="antisym_face"),
                                    pytest.param(9, 1, id="wide_sym_face")])
def test_face_ket_kernel_matches_explicit_route(n, sign):
    # The in-face ket is scattered into its pair entries; the explicit route
    # maps it through the isometry, builds rho, then partial_trace -> to_coords
    # -> GramMatrix.norm_sq.
    comp = face_composite(n)
    part_a = comp.part_a
    v, t = isometry(n, sign), math.sqrt(0.5)
    n_s = v.shape[1]
    dims = (part_a.level, comp.part_b.level)
    gram_a = grouprep.analytic_gram(part_a)
    psi = haar.haar_kets(3, n_s, np.random.default_rng(5301))
    collision, tr2 = blocks._haar_ket_block(np.random.default_rng(5301), 3, t, dims,
                                         swap=sign)
    local = purity_from_tr2(dims[0], collision)
    for k, ket in enumerate(psi):
        sigma = t * np.outer(ket, ket.conj()) + (1 - t) * np.eye(n_s) / n_s
        rho = v @ sigma @ v.conj().T
        ref_a = _partial_trace(rho, dims)
        assert local[k] == pytest.approx(
            gram_a.norm_sq(part_a.to_coords(ref_a) - part_a.max_mixed), abs=1e-12)
        assert collision[k] == pytest.approx(np.trace(ref_a @ ref_a).real, abs=1e-12)
        assert tr2[k] == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)