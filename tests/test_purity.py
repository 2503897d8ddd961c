import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptpurity.errors import RangeError
from reference.purity import purity_from_tr2, tr2_from_purity
from reference import DegenerateDirectionError, NormalizationError, grouprep, statespace as ss
from reference import purity as pur
import haar
from states import max_collision_probability, pauli_value, random_mixtures


def _space_gram(space):
    return space, grouprep.analytic_gram(space)


def test_purity_of_max_mixed_is_zero():
    for space in (ss.build_quantum(3), ss.build_classical(5), ss.build_polygon(7)):
        gram = grouprep.analytic_gram(space)
        assert pur.purity(space, gram, space.max_mixed) == pytest.approx(0.0, abs=1e-15)


def test_purity_qubit_diagonal_example():
    # Oracle: n/(n-1) Tr rho^2 - 1/(n-1) with Tr rho^2 = 9/16 + 1/16 = 5/8.
    space, gram = _space_gram(ss.build_quantum(2))
    rho = space.to_coords(np.diag([0.75, 0.25]))
    assert pur.purity(space, gram, rho) == pytest.approx(2 * (5 / 8) - 1, abs=1e-12)
    assert pur.purity(space, gram, rho) == pytest.approx(0.25, abs=1e-12)


def test_purity_classical_example():
    # Oracle: (3/2) * (1/4 + 1/16 + 1/16) - 1/2 = 1/16.
    space, gram = _space_gram(ss.build_classical(3))
    assert pur.purity(space, gram, np.array([0.5, 0.25, 0.25])) == pytest.approx(1 / 16, abs=1e-15)


def test_purity_rejects_unnormalized():
    space, gram = _space_gram(ss.build_classical(3))
    with pytest.raises(NormalizationError):
        pur.purity(space, gram, np.array([0.5, 0.25, 0.5]))


def test_tr2_conversions():
    assert purity_from_tr2(5, 1.0) == pytest.approx(1.0)
    assert purity_from_tr2(7, 1 / 7) == pytest.approx(0.0)
    assert purity_from_tr2(2, 0.8) == pytest.approx(0.6)
    assert tr2_from_purity(2, 0.6) == pytest.approx(0.8)


@given(st.integers(min_value=2, max_value=12), st.floats(min_value=0, max_value=1))
@settings(max_examples=100, deadline=None)
def test_tr2_conversion_roundtrip(n, p):
    assert purity_from_tr2(n, tr2_from_purity(n, p)) == pytest.approx(p, abs=1e-12)


def test_fixed_purity_state_endpoints(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    full = haar.fixed_purity_state(space, 1.0, rng)
    assert pur.purity(space, gram, full) == pytest.approx(1.0, abs=1e-12)
    null = haar.fixed_purity_state(space, 0.0, rng)
    np.testing.assert_allclose(null, space.max_mixed, atol=1e-15)


def test_fixed_purity_state_hits_target_and_converts(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    omega = haar.fixed_purity_state(space, 0.25, rng)
    assert pur.purity(space, gram, omega) == pytest.approx(0.25, abs=1e-12)
    rho = space.to_matrix(omega)
    assert np.trace(rho @ rho).real == pytest.approx(5 / 8, abs=1e-12)
    with pytest.raises(RangeError):
        haar.fixed_purity_state(space, 1.5, rng)


def test_purity_bounds_and_zero_iff_max_mixed(rng):
    for space in (ss.build_quantum(2), ss.build_classical(4), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        for omega in random_mixtures(space, 1000, rng):
            p = pur.purity(space, gram, omega)
            assert -1e-12 <= p <= 1 + 1e-12
            if p < 1e-9:
                np.testing.assert_allclose(omega, space.max_mixed, atol=2e-4)


def test_purity_invariance_under_group(rng):
    for space in (ss.build_quantum(3), ss.build_classical(4), ss.build_polygon(6)):
        gram = grouprep.analytic_gram(space)
        sampler = haar.sampler_for(space)
        for omega in random_mixtures(space, 50, rng):
            p = pur.purity(space, gram, omega)
            t = haar.draw_many(sampler, rng, 1)[0]
            assert abs(pur.purity(space, gram, t @ omega) - p) < 1e-9


def test_sqrt_purity_convexity(rng):
    for space in (ss.build_quantum(2), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        for _ in range(200):
            states = random_mixtures(space, 4, rng)
            lam = rng.dirichlet(np.ones(4))
            mixed = lam @ states
            lhs = math.sqrt(pur.purity(space, gram, mixed))
            rhs = sum(l * math.sqrt(pur.purity(space, gram, s)) for l, s in zip(lam, states))
            assert lhs <= rhs + 1e-12


# -- Pauli maps ------------------------------------------------------------------------


def test_pauli_from_direction_qubit_z(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    z_dir = space.bloch(space.to_coords(np.diag([1.0, 0.0])))
    x = pur.PauliMap(space, gram, pur.pauli_vectors(space, gram, z_dir[None])[0])
    assert gram.norm_sq(x.vector) == pytest.approx(1.0, abs=1e-12)
    assert pauli_value(x, space.max_mixed) == pytest.approx(0.0, abs=1e-15)
    for _ in range(20):
        omega = haar.sample_pures(space, rng, 1)[0]
        expected = np.trace(pur.pauli_string("Z") @ space.to_matrix(omega)).real
        assert pauli_value(x, omega) == pytest.approx(expected, abs=1e-12)


def test_pauli_from_direction_rejects_zero():
    space, gram = _space_gram(ss.build_quantum(2))
    with pytest.raises(DegenerateDirectionError):
        pur.pauli_vectors(space, gram, np.zeros((1, 4)))


def test_complete_set_sizes():
    assert len(pur.complete_pauli_set(ss.build_quantum(2))) == 3
    assert len(pur.complete_pauli_set(ss.build_quantum(4))) == 15
    assert len(pur.complete_pauli_set(ss.build_classical(6))) == 6
    # Polygons: one vertex Bloch vector from each antipodal pair, n maps for
    # odd n and n/2 for even n, reproducing purity on the vertices and their
    # midpoints.
    for n in range(3, 13):
        space = ss.build_polygon(n)
        pset = pur.complete_pauli_set(space)
        assert len(pset) == (n if n % 2 else n // 2)
        states = ss.with_midpoints(space.vertices)
        p = grouprep.analytic_gram(space).norms_sq(space.bloch(states))
        assert np.max(np.abs(pur.purity_via_pauli_set(pset, states) - p)) <= 1e-15
    with pytest.raises(RangeError):
        pur.complete_pauli_set(ss.build_quantum(3))


def test_classical_pauli_values_on_pure_state():
    space = ss.build_classical(3)
    pset = pur.complete_pauli_set(space)
    e1 = np.array([1.0, 0.0, 0.0])
    vals = [pauli_value(x, e1) for x in pset]
    np.testing.assert_allclose(vals, [1.0, -0.5, -0.5], atol=1e-12)


def test_pauli_maps_have_unit_norm_and_vanish_on_mu():
    for space in (ss.build_quantum(4), ss.build_classical(5), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        for x in pur.complete_pauli_set(space, gram):
            assert gram.norm_sq(x.vector) == pytest.approx(1.0, abs=1e-10)
            assert pauli_value(x, space.max_mixed) == pytest.approx(0.0, abs=1e-12)


def test_pauli_values_bounded_by_one(rng):
    for space in (ss.build_quantum(2), ss.build_classical(4), ss.build_polygon(7)):
        gram = grouprep.analytic_gram(space)
        pset = pur.complete_pauli_set(space, gram)
        states = random_mixtures(space, 200, rng)
        for x in pset:
            assert np.max(np.abs(x.evaluate_many(states))) <= 1 + 1e-10


def test_purity_via_pauli_set_ground_state():
    space, gram = _space_gram(ss.build_quantum(2))
    pset = pur.complete_pauli_set(space, gram)
    ground = space.to_coords(np.diag([1.0, 0.0]))
    assert pur.purity_via_pauli_set(pset, ground) == pytest.approx(1.0, abs=1e-12)


def test_purity_via_pauli_set_pentagon_vertex_trig_oracle():
    # Oracle: sum_k cos^2(2 pi k / 5) = 5/2, so the 5-map mean square is 1/2
    # and (K - 1) * 1/2 = 1 for a vertex.
    trig = sum(math.cos(2 * math.pi * k / 5) ** 2 for k in range(5))
    assert trig == pytest.approx(2.5, abs=1e-12)
    space, gram = _space_gram(ss.build_polygon(5))
    pset = pur.complete_pauli_set(space, gram)
    vertex = np.array(space.vertices[0])
    assert pur.purity_via_pauli_set(pset, vertex) == pytest.approx(1.0, abs=1e-12)


def test_purity_via_pauli_set_max_mixed_zero():
    space, gram = _space_gram(ss.build_classical(4))
    pset = pur.complete_pauli_set(space, gram)
    assert pur.purity_via_pauli_set(pset, space.max_mixed) == pytest.approx(0.0, abs=1e-15)


def test_purity_via_pauli_set_matches_purity_on_random_states(rng):
    for space in (ss.build_quantum(2), ss.build_quantum(4), ss.build_classical(8),
                  ss.build_polygon(4), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        pset = pur.complete_pauli_set(space, gram)
        for omega in random_mixtures(space, 200, rng):
            assert abs(
                pur.purity_via_pauli_set(pset, omega) - pur.purity(space, gram, omega)
            ) < 1e-10


# -- Haar average of squared Pauli values ---------------------------------------------


def test_pauli_haar_average_qubit_pure(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    sampler = haar.sampler_for(space)
    x = pur.complete_pauli_set(space, gram)[0]
    omega = haar.sample_pures(space, rng, 1)[0]
    avg = haar.pauli_haar_average(space, sampler, x, omega, n_samples=10_000, rng=rng)
    assert abs(avg.mean - 1 / 3) <= 3 * avg.stderr


@pytest.mark.parametrize("builder,level,seed", [(ss.build_quantum, 2, 4301),
                                                 (ss.build_quantum, 3, 4302),
                                                 (ss.build_real_quantum, 3, 4303)])
def test_pauli_haar_average_matches_purity_over_k_minus_one(builder, level, seed):
    # 5000 samples span four full draw_many blocks and one partial one.
    rng = np.random.default_rng(seed)
    space, gram = _space_gram(builder(level))
    sampler = haar.sampler_for(space)
    x = pur.PauliMap(space, gram, pur.pauli_vectors(space, gram, rng.normal(size=(1, space.K)))[0])
    omega = random_mixtures(space, 1, rng)[0]
    avg = haar.pauli_haar_average(space, sampler, x, omega, n_samples=5000, rng=rng)
    assert avg.n_samples == 5000 and not avg.exact
    expected = pur.purity(space, gram, omega) / (space.K - 1)
    assert abs(avg.mean - expected) <= 3 * avg.stderr


def test_pauli_haar_average_classical_exact():
    space, gram = _space_gram(ss.build_classical(4))
    sampler = haar.sampler_for(space)
    assert sampler.elements is not None and len(sampler.elements) == 24
    x = pur.complete_pauli_set(space, gram)[0]
    pure = np.array([1.0, 0, 0, 0])
    avg = haar.pauli_haar_average(space, sampler, x, pure)
    assert avg.exact
    assert avg.mean == pytest.approx(1 / 3, abs=1e-14)
    # The package's sum over the element stack is the reference's exact branch.
    assert pur.pauli_haar_average(grouprep.group_elements(space), x, pure) == avg.mean


def test_pauli_haar_average_max_mixed_zero(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    sampler = haar.sampler_for(space)
    x = pur.complete_pauli_set(space, gram)[1]
    avg = haar.pauli_haar_average(space, sampler, x, space.max_mixed, n_samples=100, rng=rng)
    assert avg.mean == pytest.approx(0.0, abs=1e-20)


# -- collision probability ---------------------------------------------------------------


def test_collision_probability_endpoints(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    pure = haar.sample_pures(space, rng, 1)[0]
    res = max_collision_probability(space, gram, pure)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert gram.norm_sq(res.optimizer.vector) == pytest.approx(1.0, abs=1e-12)
    mixed = max_collision_probability(space, gram, space.max_mixed)
    assert mixed.value == 0.5
    assert mixed.optimizer is None


def test_collision_probability_quarter_purity(rng):
    space, gram = _space_gram(ss.build_quantum(2))
    omega = haar.fixed_purity_state(space, 0.25, rng)
    res = max_collision_probability(space, gram, omega)
    assert res.value == pytest.approx(5 / 8, abs=1e-12)


def test_pauli_set_elements_connected_by_group_up_to_sign(rng):
    # Every map in a complete set is a group image of the first, up to sign.
    cases = [
        (ss.build_classical(4), grouprep.group_elements(ss.build_classical(4))),
        (ss.build_polygon(5), grouprep.group_elements(ss.build_polygon(5))),
        (ss.build_quantum(2), grouprep.clifford_elements(ss.build_quantum(2))),
    ]
    for space, elements in cases:
        gram = grouprep.analytic_gram(space)
        pset = pur.complete_pauli_set(space, gram)
        first = pset[0].vector
        orbit = np.concatenate([elements @ first, -(elements @ first)])
        for x in pset:
            dists = np.max(np.abs(orbit - x.vector), axis=1)
            assert dists.min() < 1e-9


@given(st.floats(min_value=0, max_value=1))
@settings(max_examples=100, deadline=None)
def test_fixed_purity_state_purity_matches_target_everywhere(p0):
    space = ss.build_quantum(2)
    gram = grouprep.analytic_gram(space)
    gen = np.random.default_rng(12)
    omega = haar.fixed_purity_state(space, p0, gen)
    assert pur.purity(space, gram, omega) == pytest.approx(p0, abs=1e-10)
