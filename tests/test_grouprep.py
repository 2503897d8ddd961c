import math

import numpy as np
import pytest

from gptpurity import composite as cm
from gptpurity import errors, grouprep, purity as pur, statespace as ss
from gptpurity.errors import RangeError, ReducibleSpaceError, UnsupportedSpaceError


def test_haar_conjugation_is_gram_orthogonal(rng):
    space = ss.build_quantum(3)
    gram = grouprep.analytic_gram(space)
    for _ in range(20):
        t = grouprep.sampler_for(space).draw(rng)
        np.testing.assert_allclose(t.T @ gram.matrix @ t, gram.matrix, atol=1e-9)


def test_haar_mean_of_pure_state_is_max_mixed(rng):
    space = ss.build_quantum(2)
    sampler = grouprep.sampler_for(space)
    phi = space.sample_pure(rng)
    n = 10_000
    out = np.zeros((n, space.K))
    for i in range(n):
        out[i] = sampler.draw(rng) @ phi
    mean = out.mean(axis=0)
    sigma = out.std(axis=0, ddof=1) / math.sqrt(n)
    np.testing.assert_array_less(np.abs(mean - space.max_mixed), 3 * sigma + 1e-12)


def test_haar_first_moment_vanishes(rng):
    n, draws = 3, 8000
    acc = np.zeros((n, n), dtype=complex)
    for _ in range(draws):
        acc += grouprep.haar_unitaries(1, n, rng)[0]
    mean = acc / draws
    # each entry has second moment 1/n per draw
    bound = 4 * math.sqrt(1 / (2 * n * draws))
    assert np.max(np.abs(mean.real)) < bound
    assert np.max(np.abs(mean.imag)) < bound


def test_haar_unitary_is_unitary(rng):
    u = grouprep.haar_unitaries(1, 5, rng)[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("real", [False, True])
def test_haar_unitaries_stack_and_size_one_case(real):
    for n in (1, 2, 5):
        one = grouprep.haar_unitaries(1, n, np.random.default_rng(4200 + n), real=real)
        assert one.shape == (1, n, n)
        assert one.dtype == (float if real else complex)
        np.testing.assert_allclose(one[0] @ one[0].conj().T, np.eye(n), atol=1e-12)
    us = grouprep.haar_unitaries(7, 4, np.random.default_rng(4210), real=real)
    assert us.shape == (7, 4, 4)
    assert us.dtype == (float if real else complex)
    np.testing.assert_allclose(us @ us.conj().transpose(0, 2, 1), np.broadcast_to(np.eye(4), us.shape),
                               atol=1e-12)


@pytest.mark.parametrize("builder", [ss.build_quantum, ss.build_real_quantum])
def test_haar_draw_many_is_a_stack_of_conjugations(builder):
    space = builder(3)
    sampler = grouprep.sampler_for(space)
    ts = sampler.draw_many(np.random.default_rng(4220), 5)
    assert ts.shape == (5, space.K, space.K)
    real = space.kind == ss.KIND_REAL_QUANTUM
    us = grouprep.haar_unitaries(5, 3, np.random.default_rng(4220), real=real)
    for t, u in zip(ts, us):
        np.testing.assert_allclose(t, grouprep.conjugation_matrix(space.hermitian_basis, u),
                                   atol=1e-12)
        np.testing.assert_allclose(space.order_unit @ t, space.order_unit, atol=1e-12)


def _einsum_conjugation(basis, u):
    """The per-element route: rotate every basis matrix, then take traces."""
    rotated = np.einsum("...ab,lbc,...dc->...lad", u, basis, u.conj())
    return np.real(np.einsum("kij,...lji->...kl", basis, rotated))


@pytest.mark.parametrize("builder,n", [(ss.build_quantum, 2), (ss.build_quantum, 3),
                                       (ss.build_quantum, 4), (ss.build_real_quantum, 3)])
def test_kronecker_conjugation_matches_einsum_route(builder, n):
    space = builder(n)
    real = space.kind == ss.KIND_REAL_QUANTUM
    us = grouprep.haar_unitaries(64, n, np.random.default_rng(4230 + n), real=real)
    ts = grouprep.conjugation_matrix(space.hermitian_basis, us)
    assert ts.shape == (64, space.K, space.K)
    assert ts.dtype == float
    np.testing.assert_allclose(ts, _einsum_conjugation(space.hermitian_basis, us), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grouprep.conjugation_matrix(space.hermitian_basis, us[0]), ts[0],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("builder", [ss.build_classical, ss.build_polygon])
def test_finite_draw_many_is_a_gather_of_draws(builder):
    sampler = grouprep.sampler_for(builder(5))
    ts = sampler.draw_many(np.random.default_rng(4240), 30)
    rng = np.random.default_rng(4240)
    np.testing.assert_array_equal(ts, np.stack([sampler.draw(rng) for _ in range(30)]))


def test_large_permutation_sampler_draws_as_single_permutations():
    # 9! > enumerate_limit: one row-wise shuffle replaces 30 rng.permutation calls.
    sampler = grouprep.sampler_for(ss.build_classical(9))
    assert sampler.elements is None
    rng, ref = np.random.default_rng(4241), np.random.default_rng(4241)
    ts = sampler.draw_many(rng, 30)
    # Column j of a permutation matrix is the unit vector at perm[j].
    ref_ts = np.stack([np.eye(9)[:, ref.permutation(9)] for _ in range(30)])
    np.testing.assert_array_equal(ts, ref_ts)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_blocks_shrink_under_the_memory_cap(monkeypatch):
    sampler = grouprep.sampler_for(ss.build_quantum(2))
    full = [len(ts) for ts in sampler.draw_blocks(np.random.default_rng(0), 2 * grouprep.DRAW_BLOCK + 5)]
    assert full == [grouprep.DRAW_BLOCK, grouprep.DRAW_BLOCK, 5]
    # Room for ten elements on K = 4 coordinates.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", grouprep._DRAW_BYTES_PER_ENTRY * 16 * 10)
    assert [len(ts) for ts in sampler.draw_blocks(np.random.default_rng(0), 25)] == [10, 10, 5]


def test_permutation_matrices_are_01_doubly_stochastic(rng):
    space = ss.build_classical(6)
    for _ in range(25):
        t = grouprep.sampler_for(space, enumerate_limit=0).draw(rng)
        assert set(np.unique(t)) <= {0.0, 1.0}
        np.testing.assert_allclose(t.sum(axis=0), 1.0)
        np.testing.assert_allclose(t.sum(axis=1), 1.0)


def test_dihedral_four_enumerates_eight_elements():
    sampler = grouprep.sampler_for(ss.build_polygon(4))
    assert len(sampler.elements) == 8
    keys = {np.round(t, 10).tobytes() for t in sampler.elements}
    assert len(keys) == 8


def test_orthogonal_conjugation_preserves_real_cone(rng):
    space = ss.build_real_quantum(2)
    mm = space.max_mixed
    for _ in range(100):
        t = grouprep.sampler_for(space).draw(rng)
        omega = 0.7 * space.sample_pure(rng) + 0.3 * mm
        assert space.cone_contains(t @ omega)


# -- clifford ---------------------------------------------------------------------------


def test_clifford_1q_has_24_elements_including_identity():
    els = grouprep.clifford_unitaries(1)
    assert len(els) == 24
    assert els.shape == (24, 2, 2) and not els.flags.writeable
    assert grouprep.clifford_unitaries(1) is els
    keys = set(grouprep._keys(els))
    ident = grouprep._phase_canonical(np.eye(2, dtype=complex))
    assert grouprep._keys(ident[None])[0] in keys


def test_clifford_1q_permutes_pauli_directions():
    from gptpurity.purity import pauli_string

    paulis = [pauli_string(p) for p in "XYZ"]
    signed = [s * p for p in paulis for s in (1, -1)]
    for u in grouprep.clifford_unitaries(1):
        for p in paulis:
            img = u @ p @ u.conj().T
            assert any(np.allclose(img, q, atol=1e-9) for q in signed)


def test_clifford_1q_closed_under_composition_and_inverse():
    els = grouprep.clifford_unitaries(1)
    keys = set(grouprep._keys(els))
    assert set(grouprep._keys(grouprep._phase_canonical(els.conj().transpose(0, 2, 1)))) <= keys
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.integers(24, size=2)
        prod = grouprep._phase_canonical(els[a] @ els[b])
        assert grouprep._keys(prod[None])[0] in keys


def test_enumerate_clifford_1q_conjugations_fix_max_mixed():
    space = ss.build_quantum(2)
    conj = grouprep.conjugation_matrix(space.hermitian_basis, grouprep.clifford_unitaries(1))
    assert conj.shape == (24, 4, 4)
    for t in conj:
        np.testing.assert_allclose(t @ space.max_mixed, space.max_mixed, atol=1e-12)


# -- invariant gram -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "space",
    [ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(4), ss.build_polygon(4),
     ss.build_polygon(5), ss.build_real_quantum(2)],
    ids=lambda s: f"{s.kind}-{s.level}",
)
def test_invariant_gram_matches_analytic(space):
    sampler = grouprep.sampler_for(space)
    rng = np.random.default_rng(11)
    gram = grouprep.invariant_gram(space, sampler, n_avg=3000, rng=rng, check_trials=3000)
    np.testing.assert_allclose(gram.matrix, grouprep.analytic_gram(space).matrix, atol=1e-10)


def test_quantum_gram_matches_scaled_trace_product(rng):
    for n in (2, 3):
        space = ss.build_quantum(n)
        gram = grouprep.analytic_gram(space)
        for _ in range(20):
            a = space.bloch(space.sample_pure(rng))
            b = space.bloch(space.sample_pure(rng))
            expected = n / (n - 1) * np.trace(space.to_matrix(a) @ space.to_matrix(b)).real
            assert abs(gram.inner(a, b) - expected) < 1e-12


def test_classical_gram_matches_scaled_componentwise(rng):
    n = 5
    space = ss.build_classical(n)
    gram = grouprep.analytic_gram(space)
    for _ in range(20):
        a = space.bloch(space.sample_pure(rng))
        b = space.bloch(space.sample_pure(rng))
        assert abs(gram.inner(a, b) - n / (n - 1) * np.dot(a, b)) < 1e-12


def test_square_gram_is_euclidean_on_bloch_plane():
    gram = grouprep.analytic_gram(ss.build_polygon(4))
    np.testing.assert_allclose(gram.matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_gram_pure_norm_and_invariance(rng):
    for space in (ss.build_quantum(2), ss.build_classical(3), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        sampler = grouprep.sampler_for(space)
        p = space.bloch_projector()
        for _ in range(100):
            phi = space.bloch(space.sample_pure(rng))
            assert abs(gram.norm_sq(phi) - 1.0) < 1e-12
            t = sampler.draw(rng)
            x, y = p @ rng.normal(size=space.K), p @ rng.normal(size=space.K)
            assert abs(gram.inner(t @ x, t @ y) - gram.inner(x, y)) < 1e-8


def test_gram_seed_cross_check(rng):
    space = ss.build_quantum(2)
    sampler = grouprep.sampler_for(space)
    g1 = grouprep.invariant_gram(space, sampler, n_avg=2000,
                                 rng=np.random.default_rng(1), check_trials=2000)
    g2 = grouprep.invariant_gram(space, sampler, n_avg=2000,
                                 rng=np.random.default_rng(2), check_trials=2000)
    np.testing.assert_allclose(g1.matrix, g2.matrix, atol=1e-9)


def _reducible_cylinder_space_and_sampler():
    # Bloch space R^4 = two planes rotated independently: transitive-looking
    # but reducible, like a cylinder with its symmetry axis.
    order_unit = np.zeros(5)
    order_unit[0] = 1.0
    verts = []
    for k in range(8):
        a = 2 * math.pi * k / 8
        verts.append([1.0, math.cos(a), math.sin(a), math.cos(3 * a), math.sin(3 * a)])
    space = ss.SpaceDescriptor(
        kind=ss.KIND_POLYGON, K=5, N=2,
        order_unit=order_unit, max_mixed=order_unit.copy(),
        level=8,
        vertices=np.array(verts),
    )

    def draw_many(rng, size):
        t = np.tile(np.eye(5), (size, 1, 1))
        for k, (a, b) in enumerate(rng.uniform(0, 2 * math.pi, size=(size, 2))):
            t[k, 1:3, 1:3] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
            t[k, 3:, 3:] = [[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]]
        return t

    sampler = grouprep.GroupSampler(space, draw_many)
    return space, sampler


def test_check_irreducible_flags_reducible_rep(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    dev = grouprep.check_irreducible(space, sampler, trials=3000, rng=rng)
    assert dev > 0.3
    with pytest.raises(ReducibleSpaceError):
        grouprep.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=3000)


def test_check_irreducible_pentagon_exact():
    space = ss.build_polygon(5)
    sampler = grouprep.sampler_for(space)
    assert grouprep.check_irreducible(space, sampler) < 1e-10


def test_check_irreducible_qubit_statistical():
    space = ss.build_quantum(2)
    sampler = grouprep.sampler_for(space)
    dev = grouprep.check_irreducible(
        space, sampler, trials=100_000, rng=np.random.default_rng(3), n_probes=1
    )
    assert dev < 1e-2


# Fewer than two sampled elements give no standard error and no threshold; the
# reducible cylinder read as irreducible (trials 0), divided by zero (check
# trials 0), passed the check (check trials 1) or averaged to NaN (n_avg 0).


def test_check_irreducible_refuses_zero_trials(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        grouprep.check_irreducible(space, sampler, trials=0, rng=rng)


def test_check_irreducible_refuses_zero_probes():
    space = ss.build_polygon(5)
    with pytest.raises(RangeError, match="at least 1 probe, got 0"):
        grouprep.check_irreducible(space, grouprep.sampler_for(space), n_probes=0)


def test_invariant_gram_refuses_zero_check_trials(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        grouprep.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=0)


def test_invariant_gram_refuses_one_check_trial(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 1"):
        grouprep.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=1)


def test_invariant_gram_refuses_zero_averaging_samples(rng):
    space = ss.build_quantum(2)
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        grouprep.invariant_gram(space, grouprep.sampler_for(space), n_avg=0, rng=rng)


# -- the group-average primitive ------------------------------------------------------------


@pytest.mark.parametrize("space,order", [(ss.build_classical(4), 24), (ss.build_polygon(5), 10)],
                         ids=["classical-4", "polygon-5"])
def test_group_average_sums_an_enumerated_group_exactly(space, order):
    sampler = grouprep.sampler_for(space)
    v = np.random.default_rng(5).normal(size=space.K)

    def f(ts):
        return (ts @ v) ** 2

    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    avg = grouprep.group_average(sampler, f, rng, 0)
    expected = sum(f(t[None])[0] for t in sampler.elements) / order
    assert avg.exact
    assert avg.n_samples == order
    np.testing.assert_allclose(avg.mean, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(avg.stderr, np.zeros(space.K))
    assert rng.bit_generator.state == state


def test_group_average_samples_as_the_concatenated_draw_blocks_route():
    # The route of ``verify pauli-identities``' haar-average-qubit check.
    qubit = ss.build_quantum(2)
    sampler = grouprep.sampler_for(qubit)
    x = pur.complete_pauli_set(qubit)[0]
    omega = qubit.sample_pure(np.random.default_rng(11))

    def f(ts):
        return x.evaluate_many(ts @ omega) ** 2

    trials = 2 * grouprep.DRAW_BLOCK + 500
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    avg = grouprep.group_average(sampler, f, rng, trials)
    vals = np.concatenate([f(ts) for ts in sampler.draw_blocks(ref, trials)])
    assert not avg.exact
    assert avg.n_samples == trials
    assert avg.mean == vals.mean()
    assert avg.stderr == vals.std(ddof=1) / math.sqrt(trials)
    assert rng.bit_generator.state == ref.bit_generator.state
    pauli = pur.pauli_haar_average(qubit, sampler, x, omega, trials, np.random.default_rng(12))
    assert pauli == (avg.mean, avg.stderr, trials, False)
    assert type(pauli.mean) is float and type(pauli.stderr) is float


def test_group_average_sums_array_values_block_by_block():
    sampler = grouprep.sampler_for(ss.build_quantum(2))
    trials = 2 * grouprep.DRAW_BLOCK + 500
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    avg = grouprep.group_average(sampler, lambda ts: ts, rng, trials)
    expected = sum(ts.sum(axis=0) for ts in sampler.draw_blocks(ref, trials)) / trials
    assert not avg.exact
    assert avg.n_samples == trials
    assert avg.stderr is None
    np.testing.assert_array_equal(avg.mean, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_group_average_refuses_what_it_holds_before_any_draw(monkeypatch):
    sampler = grouprep.sampler_for(ss.build_quantum(2))
    # Room for draws of ten elements on K = 4 coordinates.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", grouprep._DRAW_BYTES_PER_ENTRY * 16 * 10)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def kron_square(ts):
        return np.einsum("bij,bkl->bikjl", ts, ts).reshape(len(ts), 16, 16)

    # One block of ten (16, 16) values and their sum: 8 * 11 * 256 bytes.
    with pytest.raises(RangeError, match="a block of 10 per-sample values of width 256 "
                                         "and their sum would need 22528 bytes"):
        grouprep.group_average(sampler, kron_square, rng, 1000)
    # Scalar values are kept, and concatenated: 2 * 8 * 1000 bytes.
    with pytest.raises(RangeError, match="2 arrays of 1000 per-sample values would need 16000 bytes"):
        grouprep.group_average(sampler, lambda ts: ts[:, 0, 0], rng, 1000)
    assert rng.bit_generator.state == state
    # (4, 4) values are never wider than their draws.
    assert grouprep.group_average(sampler, lambda ts: ts, rng, 1000).mean.shape == (4, 4)


def test_array_averages_do_not_grow_with_the_trial_count(monkeypatch):
    # Keeping 5000 sampled (4, 4) values and their concatenation would need
    # 1280000 bytes; one block of them and their sum fit in 1 MiB.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 1 << 20)
    qubit = ss.build_quantum(2)
    sampler = grouprep.sampler_for(qubit)
    dev = grouprep.check_irreducible(qubit, sampler, trials=5000, rng=np.random.default_rng(1))
    assert dev < 10 / math.sqrt(5000)
    gram = grouprep.invariant_gram(qubit, sampler, n_avg=5000, rng=np.random.default_rng(2),
                                   check_trials=5000)
    np.testing.assert_allclose(gram.matrix, grouprep.analytic_gram(qubit).matrix, atol=1e-10)


# -- two-design ----------------------------------------------------------------------------


def _two_design_superoperators(k):
    """Left side (Clifford second-moment average) and right side superoperators.

    Both act on row-major-vectorized d^2 x d^2 matrices M: the left side is
    the group average of M -> (U (x) U) M (U (x) U)^dag; the right side is the
    projector combination 2 Tr(pi_s M) pi_s / (d(d+1)) + 2 Tr(pi_a M) pi_a / (d(d-1)).
    The left side is one product M^T conj(M) / |G| over the stacked,
    vectorized A = U (x) U, reordered from [(i,j),(k,l)] to kron(A, conj A)'s
    [(i,k),(j,l)].
    """
    d = 2**k
    us = np.stack(grouprep.clifford_unitaries(k))
    a = np.einsum("gij,gkl->gikjl", us, us).reshape(len(us), -1)
    dd = d * d
    lhs = (a.T @ a.conj() / len(us)).reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3)
    lhs = lhs.reshape(dd * dd, dd * dd)
    swap = grouprep.swap_operator(d)
    pi_s, pi_a = (np.eye(dd) + swap) / 2, (np.eye(dd) - swap) / 2
    rhs = (2.0 / (d * (d + 1))) * np.outer(pi_s.ravel(), pi_s.ravel()) + (
        2.0 / (d * (d - 1))
    ) * np.outer(pi_a.ravel(), pi_a.ravel())
    return lhs, rhs


def test_two_design_identity_k1():
    assert abs(grouprep.frame_potential(grouprep.clifford_unitaries(1)) - 2.0) < 1e-12


def test_two_design_superoperator_on_identity_and_swap():
    lhs, rhs = _two_design_superoperators(1)
    d = 2
    ident = np.eye(d * d)
    np.testing.assert_allclose((lhs @ ident.ravel()).reshape(4, 4), ident, atol=1e-12)
    np.testing.assert_allclose((rhs @ ident.ravel()).reshape(4, 4), ident, atol=1e-12)
    swap = grouprep.swap_operator(d)
    # Direct evaluation of the projector side: Tr(pi_s S) = Tr(pi_s) and
    # Tr(pi_a S) = -Tr(pi_a), so the right side returns pi_s - pi_a = S.
    np.testing.assert_allclose((rhs @ swap.ravel()).reshape(4, 4), swap, atol=1e-12)
    np.testing.assert_allclose((lhs @ swap.ravel()).reshape(4, 4), swap, atol=1e-12)


@pytest.mark.parametrize("k,bound", [(1, 1e-12), (2, 1e-11)])
def test_superoperators_agree_and_lhs_trace_is_frame_potential(k, bound):
    lhs, rhs = _two_design_superoperators(k)
    assert np.max(np.abs(lhs - rhs)) < bound
    frame = grouprep.frame_potential(grouprep.clifford_unitaries(k))
    assert abs(np.trace(lhs) - frame) < 1e-12
    # F - 2 is the squared Frobenius distance between the two sides.
    assert abs(np.linalg.norm(lhs - rhs) ** 2 - (frame - 2.0)) < bound


def test_pauli_group_is_not_a_two_design():
    # {I, X, Y, Z} is a 1-design only: F = 4, so |F - 2| = 2.
    from gptpurity.purity import pauli_string

    frame = grouprep.frame_potential([pauli_string(p) for p in "IXYZ"])
    assert frame == pytest.approx(4.0, abs=1e-12)
    assert abs(frame - 2.0) > 1.0


@pytest.mark.parametrize("k,digest", [
    (1, "a8a60e4851b0b1d70283eb7385bc209f5c77cdf404a31c5d83f595baa284a5ea"),
    (2, "08bc711ea4c8fb8b97c6f288569a32783b8e4b6f635de15411954157e7a31cd1"),
])
def test_clifford_closure_order_is_frozen(k, digest):
    # sha256 of the ordered rounded keys: the closure's discovery order for
    # k = 1, local pair major over the 20 coset representatives for k = 2.
    import hashlib

    keys = b"".join(grouprep._keys(grouprep.clifford_unitaries(k)))
    assert hashlib.sha256(keys).hexdigest() == digest


def test_two_design_identity_k2():
    assert abs(grouprep.frame_potential(grouprep.clifford_unitaries(2)) - 2.0) < 1e-11


def test_clifford_2q_cosets_equal_the_generated_closure():
    # The coset construction against the breadth-first closure over its
    # generators H (x) I, I (x) H, S (x) I, I (x) S and CNOT.
    els = grouprep.clifford_unitaries(2)
    assert els.shape == (11520, 4, 4) and not els.flags.writeable
    assert grouprep.clifford_unitaries(2) is els
    keys = grouprep._keys(els)
    assert len(set(keys)) == 11520
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j])
    eye = np.eye(2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    closure = grouprep._bfs_closure(
        [np.kron(h, eye), np.kron(eye, h), np.kron(s, eye), np.kron(eye, s), cnot], expect=11520)
    assert set(grouprep._keys(closure)) == set(keys)


def test_unsupported_clifford_order():
    with pytest.raises(UnsupportedSpaceError):
        grouprep.clifford_unitaries(3)


def test_sample_dihedral_draws_group_elements(rng):
    space = ss.build_polygon(5)
    sampler = grouprep.sampler_for(space)
    elements = sampler.elements
    for _ in range(20):
        t = sampler.draw(rng)
        assert any(np.allclose(t, e, atol=1e-12) for e in elements)


def test_large_classical_group_is_finite_but_not_enumerated(rng):
    sampler = grouprep.sampler_for(ss.build_classical(8))
    assert sampler.elements is None
    t = sampler.draw(rng)
    np.testing.assert_allclose(t.sum(axis=0), 1.0)


@pytest.mark.parametrize(
    "space",
    [ss.build_quantum(3), ss.build_classical(5), ss.build_real_quantum(3), ss.build_polygon(5),
     cm.compose(ss.build_quantum(2), ss.build_quantum(3)).joint],
    ids=["quantum-3", "classical-5", "real-quantum-3", "polygon-5", "quantum-2x3"],
)
def test_scale_only_gram_matches_dense_projector(space, rng):
    gram = grouprep.analytic_gram(space)
    assert gram.stored is None
    dense = gram.scale * space.bloch_projector()
    np.testing.assert_allclose(gram.matrix, dense, atol=1e-12)
    rows = rng.normal(size=(6, space.K))
    stored = grouprep.GramMatrix(gram.scale, space.order_unit, dense)
    for g in (gram, stored):
        np.testing.assert_allclose(g.apply(rows), rows @ dense, atol=1e-12)
        np.testing.assert_allclose(g.apply(rows[0]), dense @ rows[0], atol=1e-12)
        np.testing.assert_allclose(g.norms_sq(rows), np.einsum("bk,kl,bl->b", rows, dense, rows),
                                   atol=1e-12)
        for x, y in zip(rows[:-1], rows[1:]):
            assert abs(g.inner(x, y) - x @ dense @ y) < 1e-12
            assert abs(g.norm_sq(x) - x @ dense @ x) < 1e-12


@pytest.mark.parametrize("space,order", [
    (ss.build_polygon(5), 10), (ss.build_classical(4), 24), (ss.build_boxworld_bipartite(), 128),
], ids=["polygon-5", "classical-4", "boxworld-bipartite"])
def test_enumerated_draws_are_one_gather_of_the_element_list(space, order):
    # An enumerated group draws through its draw function like every other
    # sampler; the stream is that of one gather at uniform indices.
    sampler = grouprep.sampler_for(space)
    elements = sampler.elements
    assert len(elements) == order
    for s in (4250, 4251, 4252):
        expected = elements[np.random.default_rng(s).integers(len(elements), size=50)]
        np.testing.assert_array_equal(sampler.draw_many(np.random.default_rng(s), 50), expected)
