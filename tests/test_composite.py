import math

import numpy as np
import pytest

from gptpurity.errors import UnsupportedSpaceError
from reference import InconsistencyError, composite as cm
from reference import grouprep, statespace as ss
from reference.purity import complete_pauli_set, purity
import haar
from states import (compose, cone_contains, marginal_a, purity_pure_times_maxmixed,
                    random_mixtures, unit)


def _quantum_pair(na, nb):
    comp = compose(ss.build_quantum(na), ss.build_quantum(nb))
    return comp, grouprep.analytic_gram(comp.part_a), grouprep.analytic_gram(comp.joint)


def test_compose_quantum_dimensions():
    comp, _, _ = _quantum_pair(2, 2)
    assert comp.joint.K == 16
    assert comp.joint.N == 4


def test_joint_factor_levels_are_those_of_a_then_b(rng):
    # Joint coordinate i K_B + j is the product of A's coordinate i and B's
    # coordinate j, also when A is itself a joint.
    a, b = ss.build_quantum(2), ss.build_quantum(3)
    joint = compose(a, b).joint
    nested = compose(joint, a).joint
    x, y = rng.normal(size=joint.K), rng.normal(size=a.K)
    product = np.kron(joint.to_matrix(x), a.to_matrix(y))
    np.testing.assert_allclose(nested.to_coords(product), np.kron(x, y), rtol=0, atol=1e-13)
    np.testing.assert_allclose(nested.to_matrix(np.kron(x, y)), product, rtol=0, atol=1e-13)


@pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (2, 2)])
def test_dense_joint_purity_is_that_of_the_single_factor_space(na, nb, rng):
    # The dense joint reference and the one n = n_A n_B level Gell-Mann factor
    # give every density matrix the purity (n Tr rho^2 - 1)/(n - 1).
    n = na * nb
    joint, flat = compose(ss.build_quantum(na), ss.build_quantum(nb)).joint, ss.build_quantum(n)
    rhos = []
    for rank in (1, 2, n):
        z = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        rhos.append(z @ z.conj().T / np.vdot(z, z).real)
    expected = [(n * np.vdot(rho, rho).real - 1) / (n - 1) for rho in rhos]
    for space in (joint, flat):
        gram = grouprep.analytic_gram(space)
        got = [purity(space, gram, omega) for omega in space.to_coords(np.stack(rhos))]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_compose_classical_dimensions():
    comp = compose(ss.build_classical(2), ss.build_classical(3))
    assert comp.joint.K == 6
    assert comp.joint.N == 6


def test_compose_rejects_unsupported_pairs():
    with pytest.raises(UnsupportedSpaceError):
        compose(ss.build_quantum(2), ss.build_classical(2))
    with pytest.raises(UnsupportedSpaceError):
        compose(ss.build_polygon(4), ss.build_polygon(4))


def test_product_of_max_mixed_is_joint_max_mixed():
    for comp in (_quantum_pair(2, 3)[0],
                 compose(ss.build_classical(3), ss.build_classical(4))):
        prod = np.kron(comp.part_a.max_mixed, comp.part_b.max_mixed)
        np.testing.assert_allclose(prod, comp.joint.max_mixed, atol=1e-14)


def test_product_states_pass_joint_cone(rng):
    comp, _, _ = _quantum_pair(2, 3)
    for _ in range(25):
        a = haar.sample_pures(comp.part_a, rng, 1)[0]
        b = haar.sample_pures(comp.part_b, rng, 1)[0]
        prod = np.kron(a, b)
        assert cone_contains(comp.joint, prod)
        assert abs(unit(comp.joint, prod) - 1.0) < 1e-10


def test_joint_coords_match_matrix_kron(rng):
    comp, _, _ = _quantum_pair(2, 3)
    a = haar.sample_pures(comp.part_a, rng, 1)[0]
    b = haar.sample_pures(comp.part_b, rng, 1)[0]
    prod = np.kron(a, b)
    expected = np.kron(comp.part_a.to_matrix(a), comp.part_b.to_matrix(b))
    np.testing.assert_allclose(comp.joint.to_matrix(prod), expected, atol=1e-12)


def test_marginal_of_product_is_factor(rng):
    comp, _, _ = _quantum_pair(2, 2)
    a = haar.sample_pures(comp.part_a, rng, 1)[0]
    b = haar.sample_pures(comp.part_b, rng, 1)[0]
    prod = np.kron(a, b)
    np.testing.assert_allclose(marginal_a(comp, prod), a, atol=1e-12)


def test_marginal_of_bell_state_is_max_mixed():
    comp, _, _ = _quantum_pair(2, 2)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    coords = comp.joint.to_coords(np.outer(bell, bell))
    np.testing.assert_allclose(marginal_a(comp, coords), comp.part_a.max_mixed, atol=1e-12)


def test_marginal_of_correlated_classical_pair():
    comp = compose(ss.build_classical(2), ss.build_classical(2))
    omega = np.array([0.5, 0.0, 0.0, 0.5])
    np.testing.assert_allclose(marginal_a(comp, omega), [0.5, 0.5])


def test_marginalization_commutes_with_local_transformations(rng):
    comp, _, _ = _quantum_pair(2, 2)
    for _ in range(30):
        ta = haar.draw_many(haar.sampler_for(comp.part_a), rng, 1)[0]
        tb = haar.draw_many(haar.sampler_for(comp.part_b), rng, 1)[0]
        omega = random_mixtures(comp.joint, 1, rng)[0]
        lhs = marginal_a(comp, np.kron(ta, tb) @ omega)
        rhs = ta @ marginal_a(comp, omega)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    comp_c = compose(ss.build_classical(3), ss.build_classical(3))
    for _ in range(30):
        ta = haar.draw_many(haar.sampler_for(comp_c.part_a), rng, 1)[0]
        tb = haar.draw_many(haar.sampler_for(comp_c.part_b), rng, 1)[0]
        omega = random_mixtures(comp_c.joint, 1, rng)[0]
        lhs = marginal_a(comp_c, np.kron(ta, tb) @ omega)
        rhs = ta @ marginal_a(comp_c, omega)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# -- capacity witnesses ---------------------------------------------------------------


def test_qubit_witness_exact_delta():
    space = ss.build_quantum(2)
    w = cm.capacity_witness(space)
    assert len(w.states) == 2
    np.testing.assert_allclose(w.effects @ w.states.T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(w.effects.sum(axis=0), space.order_unit, atol=1e-14)
    assert w.centered


def test_square_gbit_witness_is_centered():
    # The gbit is the square: vertices 0 and 2, told apart by (1 +- x)/2.
    space = ss.build_polygon(4)
    w = cm.capacity_witness(space)
    assert w.centered
    np.testing.assert_allclose(w.states, space.vertices[[0, 2]], rtol=0, atol=0)
    np.testing.assert_allclose(w.states.mean(axis=0), space.max_mixed, atol=1e-14)
    np.testing.assert_allclose(w.effects @ w.states.T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(w.effects, [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0]], atol=1e-16)


def test_even_polygon_witness_is_centered():
    # The odd polygons' separating functional gives the antipodal pair's
    # centered witness for every even n.
    for n in (4, 6, 8, 12):
        space = ss.build_polygon(n)
        w = cm.capacity_witness(space)
        assert w.centered
        np.testing.assert_allclose(w.effects @ w.states.T, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(w.effects.sum(axis=0), space.order_unit, atol=1e-15)
        np.testing.assert_allclose(w.effects[0], 0.5 * space.vertices[0], atol=1e-15)
        vals = w.effects @ space.vertices.T
        assert vals.min() >= -1e-15 and vals.max() <= 1 + 1e-15


@pytest.mark.parametrize("n", [5, 7])
def test_odd_polygon_witness_exists_but_not_centered(n):
    space = ss.build_polygon(n)
    w = cm.capacity_witness(space)
    assert len(w.states) == 2
    np.testing.assert_allclose(w.effects @ w.states.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(w.effects.sum(axis=0), space.order_unit, atol=1e-12)
    vals = w.effects @ space.vertices.T
    assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12
    assert not w.centered


@pytest.mark.parametrize(
    "space,expected",
    [
        (ss.build_classical(4), -1 / 3),
        (ss.build_quantum(2), -1.0),
        (ss.build_polygon(4), -1.0),
    ],
    ids=["classical-4", "qubit", "square-gbit"],
)
def test_verify_centered_dynamical_gram_values(space, expected):
    gram = grouprep.analytic_gram(space)
    report = cm.verify_centered_dynamical(space, gram, cm.capacity_witness(space))
    assert report.expected_offdiag == pytest.approx(expected)
    assert report.gram_offdiag_deviation < 1e-10
    assert report.center_deviation < 1e-10


# -- P(phi (x) mu) and global Pauli normalization -------------------------------------


@pytest.mark.parametrize(
    "builder,na,nb,expected",
    [
        (ss.build_quantum, 2, 2, 1 / 3),
        (ss.build_classical, 2, 2, 1 / 3),
        (ss.build_quantum, 2, 4, 1 / 7),
    ],
)
def test_purity_pure_times_maxmixed(builder, na, nb, expected):
    comp = compose(builder(na), builder(nb))
    gram_ab = grouprep.analytic_gram(comp.joint)
    res = purity_pure_times_maxmixed(comp, gram_ab, tol=1e-12)
    assert res.numeric == pytest.approx(expected, abs=1e-12)
    assert res.closed_form == pytest.approx(expected, abs=1e-15)


def test_purity_pure_times_maxmixed_inconsistency_raises():
    comp, _, gram_ab = _quantum_pair(2, 2)
    for bad in (grouprep.GramMatrix(2.0 * gram_ab.scale, comp.joint.order_unit),
                2.0 * gram_ab.matrix):
        with pytest.raises(InconsistencyError):
            purity_pure_times_maxmixed(comp, bad, tol=1e-6)


def test_subspace_orthogonality_under_joint_gram(rng):
    comp, gram_a, gram_ab = _quantum_pair(2, 2)
    pa = grouprep.GramMatrix(1.0, comp.part_a.order_unit).matrix
    pb = grouprep.GramMatrix(1.0, comp.part_b.order_unit).matrix
    mu_b = comp.part_b.max_mixed
    for _ in range(50):
        a = pa @ rng.normal(size=4)
        a2 = pa @ rng.normal(size=4)
        b = pb @ rng.normal(size=4)
        assert abs(gram_ab.inner(np.kron(a, b), np.kron(a2, mu_b))) < 1e-8


def test_inner_product_with_max_mixed_scaling(rng):
    for builder, na, nb in ((ss.build_quantum, 2, 3), (ss.build_classical, 3, 4)):
        comp = compose(builder(na), builder(nb))
        gram_a = grouprep.analytic_gram(comp.part_a)
        gram_ab = grouprep.analytic_gram(comp.joint)
        scale = purity_pure_times_maxmixed(comp, gram_ab, tol=1e-10).numeric
        pa = grouprep.GramMatrix(1.0, comp.part_a.order_unit).matrix
        mu_b = comp.part_b.max_mixed
        for _ in range(30):
            x = pa @ rng.normal(size=comp.part_a.K)
            y = pa @ rng.normal(size=comp.part_a.K)
            lhs = gram_ab.inner(np.kron(x, mu_b), np.kron(y, mu_b))
            assert abs(lhs - scale * gram_a.inner(x, y)) < 1e-6


def _riesz_norm(comp, gram_ab, pauli):
    """Gram norm of the Bloch representer of the covector X_A (x) u_B, by pseudo-inverse."""
    dense = gram_ab.matrix
    covector = np.kron(pauli.covector, comp.part_b.order_unit)
    proj = grouprep.GramMatrix(1.0, comp.joint.order_unit).matrix
    w = proj @ np.linalg.pinv(dense, hermitian=True) @ covector
    return math.sqrt(w @ dense @ w)


def test_global_pauli_norm_matches_inverse_sqrt_scaling():
    # Dividing the representer by its norm 1/sqrt(P(phi_A (x) mu_B)) makes a
    # Pauli map on the composite.
    for builder, na, nb in ((ss.build_quantum, 2, 2), (ss.build_classical, 2, 3)):
        comp = compose(builder(na), builder(nb))
        gram_a = grouprep.analytic_gram(comp.part_a)
        gram_ab = grouprep.analytic_gram(comp.joint)
        scale = purity_pure_times_maxmixed(comp, gram_ab, tol=1e-10).numeric
        for pauli in complete_pauli_set(comp.part_a, gram_a)[:2]:
            norm = _riesz_norm(comp, gram_ab, pauli)
            assert abs(norm - 1 / math.sqrt(scale)) < 1e-6


def _kron_stacked_basis(comp):
    return np.stack([np.kron(ba, bb) for ba in comp.part_a.hermitian_basis
                     for bb in comp.part_b.hermitian_basis])


def _density(psi):
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (4, 4)])
def test_factored_joint_coordinates_match_kron_stacked_basis(na, nb, rng):
    comp = compose(ss.build_quantum(na), ss.build_quantum(nb))
    joint = comp.joint
    basis = _kron_stacked_basis(comp)
    n = na * nb
    np.testing.assert_allclose(joint.hermitian_basis, basis, atol=1e-12)

    def coords(m):
        return np.einsum("kij,ji->k", basis, m).real

    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = z + z.conj().T
    k = min(na, nb)
    bell = _density(np.eye(na, nb).ravel().astype(complex) / np.sqrt(k))
    rho_a = _density(rng.normal(size=na) + 1j * rng.normal(size=na))
    rho_b = _density(rng.normal(size=nb) + 1j * rng.normal(size=nb))
    product = np.kron(rho_a, rho_b)
    for m in (herm, bell, product):
        c = joint.to_coords(m)
        np.testing.assert_allclose(c, coords(m), atol=1e-12)
        np.testing.assert_allclose(joint.to_matrix(c), m, atol=1e-12)
        np.testing.assert_allclose(joint.to_matrix(c), np.einsum("k,kij->ij", c, basis), atol=1e-12)
    np.testing.assert_allclose(
        joint.to_coords(product),
        np.kron(comp.part_a.to_coords(rho_a), comp.part_b.to_coords(rho_b)),
        atol=1e-12,
    )
    np.testing.assert_allclose(joint.to_coords(bell) @ joint.order_unit, 1.0, atol=1e-12)
    stack = np.stack([herm, bell, product])
    np.testing.assert_allclose(joint.to_coords(stack), [coords(m) for m in stack], atol=1e-12)


@pytest.mark.parametrize("builder", [ss.build_quantum, ss.build_classical])
def test_global_pauli_norm_matches_pinv_riesz_route(builder):
    comp = compose(builder(2), builder(3))
    gram_a = grouprep.analytic_gram(comp.part_a)
    gram_ab = grouprep.analytic_gram(comp.joint)
    phimu = purity_pure_times_maxmixed(comp, gram_ab, tol=1e-10).numeric
    for pauli in complete_pauli_set(comp.part_a, gram_a):
        assert abs(1 / math.sqrt(phimu) - _riesz_norm(comp, gram_ab, pauli)) < 1e-12
