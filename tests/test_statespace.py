import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptpurity import composite as cm
from gptpurity import grouprep
from gptpurity import randomize as rnd
from gptpurity import statespace as ss
from gptpurity.errors import InvalidDimensionError, NormalizationError
from gptpurity.statespace import random_mixtures


@pytest.mark.parametrize("n,k", [(2, 4), (3, 9), (5, 25), (128, 16384)])
def test_quantum_dimensions(n, k):
    space = ss.build_quantum(n)
    assert space.K == k
    assert space.N == n
    assert space.K >= space.N


def test_quantum_max_mixed_reassembles_to_identity_over_n():
    space = ss.build_quantum(2)
    np.testing.assert_allclose(space.to_matrix(space.max_mixed), np.eye(2) / 2, atol=1e-15)


def test_quantum_basis_orthonormal():
    b = ss.build_quantum(3).hermitian_basis
    g = np.einsum("kij,lji->kl", b, b)
    np.testing.assert_allclose(g, np.eye(9), atol=1e-14)


def test_quantum_rejects_small_dimension():
    with pytest.raises(InvalidDimensionError):
        ss.build_quantum(1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_dimensions(n):
    space = ss.build_classical(n)
    assert space.K == n == space.N


def test_classical_max_mixed_and_pure():
    space = ss.build_classical(2)
    np.testing.assert_allclose(space.max_mixed, [0.5, 0.5])
    four = ss.build_classical(4)
    pure = np.array([1.0, 0.0, 0.0, 0.0])
    assert four.cone_contains(pure)
    assert abs(four.unit(pure) - 1.0) < 1e-15
    with pytest.raises(InvalidDimensionError):
        ss.build_classical(1)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_polygon_dimensions(n):
    space = ss.build_polygon(n)
    assert space.K == 3
    assert space.N == 2
    assert len(space.vertices) == n


def test_polygon_max_mixed_center_and_errors():
    square = ss.build_polygon(4)
    np.testing.assert_allclose(square.bloch(square.max_mixed), 0.0, atol=1e-15)
    assert square.max_mixed[1] == square.max_mixed[2] == 0.0
    with pytest.raises(InvalidDimensionError):
        ss.build_polygon(2)


def test_polygon_vertices_pass_cone_and_interior_points_too(rng):
    for n in (4, 5, 6):
        space = ss.build_polygon(n)
        for v in space.vertices:
            assert space.cone_contains(v)
        for omega in random_mixtures(space, 50, rng):
            assert space.cone_contains(omega)
        outside = np.array([1.0, 1.1, 0.0])
        assert not space.cone_contains(outside)


@pytest.mark.parametrize("m,k", [(2, 3), (3, 6), (4, 10), (8, 36)])
def test_real_quantum_dimensions(m, k):
    space = ss.build_real_quantum(m)
    assert space.K == k
    np.testing.assert_allclose(space.to_matrix(space.max_mixed), np.eye(m) / m, atol=1e-15)


def test_bloch_of_max_mixed_is_zero():
    for space in (ss.build_quantum(3), ss.build_classical(4), ss.build_polygon(5)):
        np.testing.assert_allclose(space.bloch(space.max_mixed), 0.0, atol=1e-15)


def test_bloch_qubit_ground_state():
    space = ss.build_quantum(2)
    rho = space.to_coords(np.diag([1.0, 0.0]))
    expected = space.to_coords(np.diag([0.5, -0.5]))
    np.testing.assert_allclose(space.bloch(rho), expected, atol=1e-15)


def test_bloch_classical_bit():
    space = ss.build_classical(2)
    np.testing.assert_allclose(space.bloch(np.array([1.0, 0.0])), [0.5, -0.5])


def test_bloch_rejects_unnormalized():
    space = ss.build_classical(3)
    with pytest.raises(NormalizationError):
        space.bloch(np.array([1.0, 1.0, 1.0]))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_bloch_linearity_over_mixtures(weights):
    space = ss.build_classical(5)
    lam = np.array(weights) / np.sum(weights)
    gen = np.random.default_rng(7)
    states = np.stack([space.sample_pure(gen) for _ in lam])
    mixed = lam @ states
    blochs = states - space.max_mixed
    np.testing.assert_allclose(space.bloch(mixed), lam @ blochs, atol=1e-14)


def test_quantum_cone_agrees_with_eigenvalue_check(rng):
    space = ss.build_quantum(3)
    hits = 0
    for _ in range(1000):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (a + a.conj().T) / 2
        if rng.random() < 0.5:
            h = h @ h.conj().T  # force PSD half the time
        coords = space.to_coords(h)
        expected = bool(np.all(np.linalg.eigvalsh(h) >= -1e-9))
        assert space.cone_contains(coords) == expected
        hits += expected
    assert 0 < hits < 1000


def test_max_mixed_fixed_by_sampled_transformations(rng):
    spaces = [
        ss.build_quantum(2),
        ss.build_quantum(3),
        ss.build_classical(4),
        ss.build_polygon(5),
        ss.build_real_quantum(2),
        ss.build_boxworld_local(),
        ss.build_boxworld_bipartite(),
    ]
    for space in spaces:
        sampler = grouprep.sampler_for(space)
        for _ in range(20):
            t = sampler.draw(rng)
            np.testing.assert_allclose(t @ space.max_mixed, space.max_mixed, atol=1e-10)
            assert abs(space.order_unit @ t @ space.max_mixed - 1.0) < 1e-10


# -- boxworld -------------------------------------------------------------------------


def test_boxworld_has_24_distinct_pure_states():
    space = ss.build_boxworld_bipartite()
    assert space.K == 9
    assert len(space.vertices) == 24
    keys = {np.round(v, 10).tobytes() for v in space.vertices}
    assert len(keys) == 24


def test_boxworld_vertices_pass_cone_test():
    space = ss.build_boxworld_bipartite()
    for v in space.vertices:
        assert space.cone_contains(v)
        assert abs(space.unit(v) - 1.0) < 1e-12
    assert space.cone_contains(ss.boxworld_pr_state())


def test_boxworld_max_mixed_bloch_is_zero_matrix():
    space = ss.build_boxworld_bipartite()
    np.testing.assert_allclose(space.bloch(space.max_mixed).reshape(3, 3), 0.0)


def test_boxworld_pr_state_matches_its_matrix_form():
    w = ss.boxworld_pr_state().reshape(3, 3)
    expected = np.array([[1.0, 0, 0], [0, 0.5, 0.5], [0, 0.5, -0.5]])
    np.testing.assert_allclose(w, expected)


def test_boxworld_vertices_are_extreme_points():
    # Each vertex must be infeasible as a convex combination of the others.
    linprog = pytest.importorskip("scipy.optimize").linprog
    space = ss.build_boxworld_bipartite()
    verts = np.asarray(space.vertices)
    for i in range(len(verts)):
        others = np.delete(verts, i, axis=0)
        a_eq = np.vstack([others.T, np.ones(len(others))])
        b_eq = np.concatenate([verts[i], [1.0]])
        res = linprog(np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, 1)] * len(others), method="highs")
        assert not res.success


def test_quantum_descriptor_fields():
    space = ss.build_quantum(2)
    assert space.kind == "quantum"
    assert space.K == 4 and space.N == 2
    assert space.order_unit[0] == math.sqrt(2)
    np.testing.assert_allclose(space.order_unit, [math.sqrt(2), 0, 0, 0])
    np.testing.assert_allclose(space.to_matrix(space.max_mixed), np.eye(2) / 2, atol=1e-15)


def test_descriptors_are_immutable():
    import dataclasses

    space = ss.build_quantum(2)
    with pytest.raises(ValueError):
        space.max_mixed[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.K = 5
    gram = grouprep.analytic_gram(space)
    with pytest.raises(ValueError):
        gram.matrix[0, 0] = 7.0
    square = ss.build_polygon(4)
    averaged = grouprep.invariant_gram(square, grouprep.sampler_for(square))
    with pytest.raises(ValueError):
        averaged.stored[0, 0] = 7.0
    records = ((gram, "scale"), (averaged, "stored"), (grouprep.sampler_for(space), "draw_fn"),
               (cm.capacity_witness(space), "states"))
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# -- generalized Gell-Mann coordinates against loop-built bases ------------------------


def _loop_hermitian_basis(d):
    """The d x d Hermitian basis, built element by element (identity first)."""
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / math.sqrt(2)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2)
            m[k, j] = 1j / math.sqrt(2)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m / math.sqrt(l * (l + 1)))
    return np.stack(mats)


def _loop_symmetric_basis(d):
    """The d x d real symmetric basis: the Hermitian one without its imaginary pairs."""
    pairs = d * (d - 1) // 2
    full = _loop_hermitian_basis(d)
    return np.concatenate([full[:1 + pairs], full[1 + 2 * pairs:]]).real


def _oracle(levels, real):
    """The Kronecker-stacked basis of a joint with these factor levels."""
    basis = np.ones((1, 1, 1))
    for d in levels:
        b = _loop_symmetric_basis(d) if real else _loop_hermitian_basis(d)
        basis = np.einsum("aij,bkl->abikjl", basis, b).reshape(
            len(basis) * len(b), basis.shape[1] * d, basis.shape[1] * d)
    return basis


def _random_matrices(rng, size, n, real):
    z = rng.normal(size=(size, n, n))
    if not real:
        z = z + 1j * rng.normal(size=(size, n, n))
    return z


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_index_arithmetic_matches_loop_built_basis(d, real, rng):
    space = ss.build_real_quantum(d) if real else ss.build_quantum(d)
    basis = _oracle((d,), real)
    assert space.factor_levels == (d,)
    np.testing.assert_allclose(space.hermitian_basis, basis, rtol=0, atol=1e-15)
    # A batched stack of general (not Hermitian) matrices: the real part of
    # Tr(B_k M) for every k.
    ms = _random_matrices(rng, 5, d, real).reshape(5, 1, d, d)
    coords = space.to_coords(ms)
    assert coords.shape == (5, 1, space.K) and coords.dtype == float
    np.testing.assert_allclose(coords, np.einsum("kij,...ji->...k", basis, ms).real,
                               rtol=0, atol=1e-14)
    c = rng.normal(size=(3, space.K))
    np.testing.assert_allclose(space.to_matrix(c), np.einsum("...k,kij->...ij", c, basis),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(space.to_coords(space.to_matrix(c)), c, rtol=0, atol=1e-14)
    np.testing.assert_allclose(space.to_coords(np.eye(d, dtype=int)),
                               np.sqrt(d) * (np.arange(space.K) == 0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 4)])
def test_joint_index_arithmetic_matches_kronecker_of_loop_bases(na, nb, rng):
    joint = cm.compose(ss.build_quantum(na), ss.build_quantum(nb)).joint
    basis = _oracle((na, nb), False)
    assert joint.factor_levels == (na, nb)
    np.testing.assert_allclose(joint.hermitian_basis, basis, rtol=0, atol=1e-15)
    ms = _random_matrices(rng, 4, na * nb, False)
    np.testing.assert_allclose(joint.to_coords(ms), np.einsum("kij,bji->bk", basis, ms).real,
                               rtol=0, atol=1e-13)
    c = rng.normal(size=(2, joint.K))
    np.testing.assert_allclose(joint.to_matrix(c), np.einsum("bk,kij->bij", c, basis),
                               rtol=0, atol=1e-13)


def test_haar_kets_size_one_is_haar_ket_and_sample_pure():
    for real in (False, True):
        kets = rnd.haar_kets(6, 5, np.random.default_rng(11), real=real)
        assert kets.shape == (6, 5) and np.iscomplexobj(kets) != real
        np.testing.assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-15)
    one = rnd.haar_kets(1, 5, np.random.default_rng(12))
    assert one.shape == (1, 5)
    assert np.linalg.norm(one) == pytest.approx(1.0, abs=1e-15)
    for space in (ss.build_quantum(3), ss.build_real_quantum(3)):
        real = space.kind == ss.KIND_REAL_QUANTUM
        psi = rnd.haar_kets(4, 3, np.random.default_rng(13), real=real)
        rhos = psi[:, :, None] * psi[:, None, :].conj()
        np.testing.assert_array_equal(space.sample_pures(np.random.default_rng(13), 4),
                                      space.to_coords(rhos))
        np.testing.assert_array_equal(space.sample_pure(np.random.default_rng(14)),
                                      space.sample_pures(np.random.default_rng(14), 1)[0])
    for space in (ss.build_classical(4), ss.build_polygon(5)):
        # A gather at uniform indices draws the stream of single draws.
        a, b = np.random.default_rng(15), np.random.default_rng(15)
        stack = space.sample_pures(a, 4)
        np.testing.assert_array_equal(stack, [space.sample_pure(b) for _ in range(4)])
