import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gptpurity import errors
from gptpurity import grouprep as gr
from gptpurity.errors import RangeError, UnsupportedSpaceError
from reference import clifford, grouprep, purity as pur, statespace as ss
import cliffords
import haar
from haar import ReducibleSpaceError
from states import (boxworld_generators, boxworld_group_elements, build_boxworld_bipartite,
                    compose, cone_contains, group_sampler, swap_operator)


def test_haar_conjugation_is_gram_orthogonal(rng):
    space = ss.build_quantum(3)
    gram = grouprep.analytic_gram(space)
    for _ in range(20):
        t = haar.draw_many(haar.sampler_for(space), rng, 1)[0]
        np.testing.assert_allclose(t.T @ gram.matrix @ t, gram.matrix, atol=1e-9)


def test_haar_mean_of_pure_state_is_max_mixed(rng):
    space = ss.build_quantum(2)
    sampler = haar.sampler_for(space)
    phi = haar.sample_pures(space, rng, 1)[0]
    n = 10_000
    out = haar.draw_many(sampler, rng, n) @ phi
    mean = out.mean(axis=0)
    sigma = out.std(axis=0, ddof=1) / math.sqrt(n)
    np.testing.assert_array_less(np.abs(mean - space.max_mixed), 3 * sigma + 1e-12)


def test_haar_first_moment_vanishes(rng):
    n, draws = 3, 8000
    mean = haar.haar_unitaries(draws, n, rng).mean(axis=0)
    # each entry has second moment 1/n per draw
    bound = 4 * math.sqrt(1 / (2 * n * draws))
    assert np.max(np.abs(mean.real)) < bound
    assert np.max(np.abs(mean.imag)) < bound


def test_haar_unitary_is_unitary(rng):
    u = haar.haar_unitaries(1, 5, rng)[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("real", [False, True])
def test_haar_unitaries_stack_and_size_one_case(real):
    for n in (1, 2, 5):
        one = haar.haar_unitaries(1, n, np.random.default_rng(4200 + n), real=real)
        assert one.shape == (1, n, n)
        assert one.dtype == (float if real else complex)
        np.testing.assert_allclose(one[0] @ one[0].conj().T, np.eye(n), atol=1e-12)
    us = haar.haar_unitaries(7, 4, np.random.default_rng(4210), real=real)
    assert us.shape == (7, 4, 4)
    assert us.dtype == (float if real else complex)
    np.testing.assert_allclose(us @ us.conj().transpose(0, 2, 1), np.broadcast_to(np.eye(4), us.shape),
                               atol=1e-12)


def _qr_haar_unitaries(size, n, rng, real):
    """The reference route: one stacked LAPACK QR of the same Ginibre draws,
    each column's phase fixed by the diagonal of R."""
    z = rng.normal(size=(size, n, n))
    if not real:
        z = (z + 1j * rng.normal(size=(size, n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (np.sign(d) if real else d / np.abs(d))[:, None, :]


@pytest.mark.parametrize("real", [False, True])
def test_gram_schmidt_unitaries_match_the_qr_route_without_lapack(monkeypatch, real):
    # Gram-Schmidt gives the Q whose R has a positive diagonal, which is what
    # the phase-fixed QR gives, from the same draws in the same order.
    seeds = {n: 4270 + 10 * real + n for n in (1, 2, 3, 5)}
    refs = {}
    for n, seed in seeds.items():
        rng = np.random.default_rng(seed)
        refs[n] = (_qr_haar_unitaries(64, n, rng, real), rng.bit_generator.state)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK QR called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    for n, (ref, state) in refs.items():
        rng = np.random.default_rng(seeds[n])
        us = haar.haar_unitaries(64, n, rng, real=real)
        assert us.dtype == ref.dtype
        np.testing.assert_allclose(us, ref, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == state
    space = ss.build_real_quantum(2) if real else ss.build_quantum(2)
    assert haar.draw_many(haar.sampler_for(space), np.random.default_rng(4290), 8).shape == (
        8, space.K, space.K)


@pytest.mark.parametrize("builder", [ss.build_quantum, ss.build_real_quantum])
def test_haar_draw_many_is_a_stack_of_conjugations(builder):
    space = builder(3)
    sampler = haar.sampler_for(space)
    ts = haar.draw_many(sampler, np.random.default_rng(4220), 5)
    assert ts.shape == (5, space.K, space.K)
    real = space.kind == ss.KIND_REAL_QUANTUM
    us = haar.haar_unitaries(5, 3, np.random.default_rng(4220), real=real)
    for t, u in zip(ts, us):
        np.testing.assert_allclose(t, grouprep.conjugation_matrix(space, u),
                                   atol=1e-12)
        np.testing.assert_allclose(space.order_unit @ t, space.order_unit, atol=1e-12)


def _einsum_conjugation(basis, u):
    """The per-element route: rotate every basis matrix, then take traces."""
    rotated = np.einsum("...ab,lbc,...dc->...lad", u, basis, u.conj())
    return np.real(np.einsum("kij,...lji->...kl", basis, rotated))


def _drawn(space):
    real = space.kind == ss.KIND_REAL_QUANTUM
    return haar.haar_unitaries(64, space.level, np.random.default_rng(4230 + space.level),
                               real=real)


def _generators(space):
    """The unitaries whose conjugations ``group_generators`` returns, caught at the call."""
    seen, route = [], grouprep.conjugation_matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouprep, "conjugation_matrix", lambda sp, u: seen.append(u) or route(sp, u))
        grouprep.group_generators(space)
    return seen[0]


# Haar draws, and the stacks that the exact suites conjugate.
_CONJUGATION_CASES = [
    *(pytest.param(b, n, _drawn, id=f"{b.__name__}-{n}")
      for b, n in ((ss.build_quantum, 2), (ss.build_quantum, 3), (ss.build_quantum, 4),
                   (ss.build_real_quantum, 2), (ss.build_real_quantum, 3))),
    pytest.param(ss.build_quantum, 2, lambda space: grouprep.clifford_unitaries(),
                 id="clifford-1q"),
    *(pytest.param(b, n, _generators, id=f"generators-{b.__name__}-{n}")
      for b, n in ((ss.build_quantum, 2), (ss.build_quantum, 3), (ss.build_real_quantum, 2))),
]


@pytest.mark.parametrize("builder,n,unitaries", _CONJUGATION_CASES)
def test_conjugation_matches_einsum_route(builder, n, unitaries):
    space = builder(n)
    us = unitaries(space)
    ts = grouprep.conjugation_matrix(space, us)
    assert ts.shape == (len(us), space.K, space.K)
    assert ts.dtype == float
    np.testing.assert_allclose(ts, _einsum_conjugation(space.hermitian_basis, us), rtol=0, atol=1e-12)
    # Each element alone gives the bytes it has in the stack.
    np.testing.assert_array_equal(np.stack([grouprep.conjugation_matrix(space, u) for u in us]), ts)


@pytest.mark.parametrize("builder", [ss.build_classical, ss.build_polygon])
def test_finite_draw_many_is_a_gather_of_draws(builder):
    sampler = haar.sampler_for(builder(5))
    ts = haar.draw_many(sampler, np.random.default_rng(4240), 30)
    rng = np.random.default_rng(4240)
    np.testing.assert_array_equal(ts, np.concatenate([haar.draw_many(sampler, rng, 1)
                                                      for _ in range(30)]))


def test_large_permutation_sampler_draws_as_single_permutations():
    # 9! > ENUMERATE_LIMIT: one row-wise shuffle replaces 30 rng.permutation calls.
    sampler = haar.sampler_for(ss.build_classical(9))
    assert sampler.elements is None
    rng, ref = np.random.default_rng(4241), np.random.default_rng(4241)
    ts = haar.draw_many(sampler, rng, 30)
    # Column j of a permutation matrix is the unit vector at perm[j].
    ref_ts = np.stack([np.eye(9)[:, ref.permutation(9)] for _ in range(30)])
    np.testing.assert_array_equal(ts, ref_ts)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_draw_blocks_shrink_under_the_memory_cap(monkeypatch):
    sampler = haar.sampler_for(ss.build_quantum(2))
    blocks = haar.draw_blocks(sampler, np.random.default_rng(0), 2 * haar.DRAW_BLOCK + 5)
    full = [len(ts) for ts in blocks]
    assert full == [haar.DRAW_BLOCK, haar.DRAW_BLOCK, 5]
    # Room for ten elements on K = 4 coordinates.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", haar._DRAW_BYTES_PER_ENTRY * 16 * 10)
    blocks = haar.draw_blocks(sampler, np.random.default_rng(0), 25)
    assert [len(ts) for ts in blocks] == [10, 10, 5]


def test_permutation_matrices_are_01_doubly_stochastic(rng):
    space = ss.build_classical(6)
    for _ in range(25):
        t = haar.draw_many(haar.sampler_for(space), rng, 1)[0]
        assert set(np.unique(t)) <= {0.0, 1.0}
        np.testing.assert_allclose(t.sum(axis=0), 1.0)
        np.testing.assert_allclose(t.sum(axis=1), 1.0)


def test_dihedral_four_enumerates_eight_elements():
    sampler = haar.sampler_for(ss.build_polygon(4))
    assert len(sampler.elements) == 8
    keys = {np.round(t, 10).tobytes() for t in sampler.elements}
    assert len(keys) == 8


def _trig_dihedral(n):
    """D_n by its own trigonometry: rotations by 2 pi k/n, then reflections through
    the axes at angle pi k/n, lifted to the ambient coordinates."""
    mats = []
    for k in range(n):
        a = 2 * math.pi * k / n
        mats.append([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    for k in range(n):
        a = math.pi * k / n
        mats.append([[math.cos(2 * a), math.sin(2 * a)], [math.sin(2 * a), -math.cos(2 * a)]])
    t = np.tile(np.eye(3), (2 * n, 1, 1))
    t[:, 1:, 1:] = mats
    return t


@pytest.mark.parametrize("n", range(3, 13))
def test_polygon_group_is_the_trig_dihedral_group_on_the_vertices(n):
    space = ss.build_polygon(n)
    elements = grouprep.group_elements(space)
    np.testing.assert_allclose(elements, _trig_dihedral(n), rtol=0, atol=1e-15)
    # Each element permutes the vertices, up to the rounding of its products.
    images = np.einsum("gkl,vl->gvk", elements, space.vertices)
    dists = np.max(np.abs(images[:, :, None, :] - space.vertices[None, None]), axis=-1)
    assert np.all(dists.min(axis=-1) <= 1e-14)
    assert all(len(set(row)) == n for row in dists.argmin(axis=-1))


def test_orthogonal_conjugation_preserves_real_cone(rng):
    space = ss.build_real_quantum(2)
    mm = space.max_mixed
    for _ in range(100):
        t = haar.draw_many(haar.sampler_for(space), rng, 1)[0]
        omega = 0.7 * haar.sample_pures(space, rng, 1)[0] + 0.3 * mm
        assert cone_contains(space, t @ omega)


# -- clifford ---------------------------------------------------------------------------


_UNITS = (1, 1j, -1, -1j)


def _adjoint(element):
    """The canonical inverse of an exact element: G^dag / (1 - i)^k, equal to
    G^dag / (1 + i)^k up to the phase i^k."""
    k, g = element
    d = math.isqrt(len(g))
    return clifford.canonical(k, tuple(g[j * d + i].conjugate()
                                       for i in range(d) for j in range(d)))


def test_clifford_1q_has_24_elements_including_identity():
    els = clifford.one_qubit_group()
    assert len(els) == len(set(els)) == 24
    assert clifford.one_qubit_group() is els
    assert els[0] == clifford.canonical(0, (1, 0, 0, 1))
    us = grouprep.clifford_unitaries()
    assert us.shape == (24, 2, 2) and us.dtype == complex
    # Dyadic entries: the stack is unitary with no rounding.
    np.testing.assert_array_equal(us @ us.conj().transpose(0, 2, 1),
                                  np.broadcast_to(np.eye(2), us.shape))


def test_canonical_form_is_idempotent_and_unchanged_by_each_unit():
    for k, g in clifford.one_qubit_group() + cliffords.two_qubit_elements()[::97]:
        assert clifford.canonical(k, g) == (k, g)
        # Some entry is not divisible by 1 + i, and the first nonzero one has
        # re > 0 and im >= 0.
        assert any((x.real + x.imag) % 2 for x in g)
        first = next(x for x in g if x)
        assert first.real > 0 and first.imag >= 0
        for u in _UNITS:
            assert clifford.canonical(k, tuple(u * x for x in g)) == (k, g)
            assert clifford.canonical(k + 1, tuple((1 + 1j) * u * x for x in g)) == (k, g)


def test_clifford_1q_permutes_pauli_directions():
    from reference.purity import pauli_string

    paulis = [pauli_string(p) for p in "XYZ"]
    signed = [s * p for p in paulis for s in (1, -1)]
    for u in grouprep.clifford_unitaries():
        for p in paulis:
            img = u @ p @ u.conj().T
            assert any(np.allclose(img, q, atol=1e-9) for q in signed)


def test_clifford_1q_closed_under_composition_and_inverse():
    els = clifford.one_qubit_group()
    keys = set(els)
    for a in els:
        assert _adjoint(a) in keys
        assert clifford._mul(a, _adjoint(a)) == els[0]
        assert {clifford._mul(a, b) for b in els} == keys
    # The two-qubit group, at 200 random pairs and every inverse.
    els = cliffords.two_qubit_elements()
    keys = set(els)
    ident = clifford.canonical(0, tuple(int(i == j) for i in range(4) for j in range(4)))
    assert ident in keys
    assert {_adjoint(a) for a in els} == keys
    for i, j in np.random.default_rng(1).integers(len(els), size=(200, 2)):
        assert clifford._mul(els[i], els[j]) in keys
        assert clifford._mul(els[i], _adjoint(els[i])) == ident


def test_enumerate_clifford_1q_conjugations_fix_max_mixed():
    space = ss.build_quantum(2)
    conj = grouprep.conjugation_matrix(space, grouprep.clifford_unitaries())
    assert conj.shape == (24, 4, 4)
    for t in conj:
        np.testing.assert_allclose(t @ space.max_mixed, space.max_mixed, atol=1e-12)


def test_real_products_take_one_product_and_give_the_complex_route_bits(rng):
    a, b = rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3, 3))
    real = grouprep._product(a, b)
    assert real.dtype == np.float64
    np.testing.assert_array_equal(real, grouprep._product(a + 0j, b + 0j).real)
    # An orthogonal conjugation of real quantum theory, through to its coordinates.
    space = ss.build_real_quantum(3)
    us = haar.haar_unitaries(4, 3, rng, real=True)
    np.testing.assert_array_equal(grouprep.conjugation_matrix(space, us),
                                  grouprep.conjugation_matrix(space, us + 0j))


def test_only_enumerable_groups_have_element_stacks():
    assert len(grouprep.group_elements(ss.build_classical(6))) == 720
    for space in (ss.build_quantum(2), ss.build_real_quantum(2), ss.build_classical(7)):
        with pytest.raises(UnsupportedSpaceError, match="no enumerated group"):
            grouprep.group_elements(space)


# -- uniqueness of the invariant gram -----------------------------------------------------

# The spaces of ``verify gram-invariance``; the gbit is the square polygon-4.
UNIQUE_GRAM_SPACES = [ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(3),
                      ss.build_classical(5), ss.build_polygon(4), ss.build_polygon(5),
                      ss.build_real_quantum(2)]


def _sym_coords(x):
    """A symmetric form in the orthonormal basis of ``grouprep._invariance_system``."""
    a, b = np.triu_indices(len(x))
    return np.where(a == b, 1.0, math.sqrt(2)) * x[a, b]


@pytest.mark.parametrize("space", UNIQUE_GRAM_SPACES, ids=lambda s: f"{s.kind}-{s.level}")
def test_generators_leave_only_the_unit_and_the_gram_invariant(space):
    ts = grouprep.group_generators(space)
    assert grouprep.invariant_form_dimension(ts) == 2
    system = grouprep._invariance_system(ts)
    # The order unit's square and the analytic Gram solve the system.
    u = space.order_unit
    for form in (np.outer(u, u), grouprep.analytic_gram(space).matrix):
        assert np.max(np.abs(system @ _sym_coords(form))) <= 1e-12
    # The rank is far from the elimination's threshold: LAPACK finds the same
    # rank, and the smallest nonzero singular value is at least 0.5.
    sv = np.linalg.svd(system, compute_uv=False)
    nonzero = sv[sv > grouprep.RANK_TOL * np.max(np.abs(system))]
    assert len(nonzero) == system.shape[1] - 2
    assert nonzero.min() >= 0.5


def test_partial_generator_sets_leave_more_forms_invariant():
    # The transposition (0 1) alone fixes each form that is constant on its
    # orbits of outcome pairs: 11 of the 15 on five outcomes.  The qubit's S
    # and T both rotate about z, which leaves the unit, the unit-z cross
    # term, z^2 and x^2 + y^2.
    transposition = grouprep.group_generators(ss.build_classical(5))[:1]
    assert grouprep.invariant_form_dimension(transposition) == 11
    s_and_t = grouprep.group_generators(ss.build_quantum(2))[1:]
    assert grouprep.invariant_form_dimension(s_and_t) == 4


def test_boxworld_generators_generate_the_group_and_leave_three_forms_invariant():
    # The unit and the free weights a and b of the correlation and marginal
    # blocks, from the five generators and from all 128 elements.
    gens = boxworld_generators()
    elements = boxworld_group_elements()
    assert grouprep.invariant_form_dimension(gens) == 3
    assert grouprep.invariant_form_dimension(elements) == 3
    # Their closure is the group: the entries are 0 and +-1, so products are exact.
    seen, frontier = {np.eye(9).tobytes()}, [np.eye(9)]
    while frontier:
        products, frontier = [g @ t + 0.0 for t in frontier for g in gens], []
        for t in products:
            if t.tobytes() not in seen:
                seen.add(t.tobytes())
                frontier.append(t)
    assert seen == {(t + 0.0).tobytes() for t in elements}


def test_elimination_rank_matches_lapack_on_a_known_rank():
    # Rank 3 in 6 columns, with the columns mixed so no pivot is trivial.
    rng = np.random.default_rng(4300)
    a = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 6))
    assert grouprep._rank(a.copy()) == np.linalg.matrix_rank(a) == 3
    assert grouprep._rank(np.zeros((4, 3))) == 0
    assert grouprep._rank(np.eye(3)[:2]) == 2


# -- invariant gram -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "space",
    [ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(4), ss.build_polygon(4),
     ss.build_polygon(5), ss.build_real_quantum(2)],
    ids=lambda s: f"{s.kind}-{s.level}",
)
def test_invariant_gram_matches_analytic(space):
    sampler = haar.sampler_for(space)
    rng = np.random.default_rng(11)
    gram = haar.invariant_gram(space, sampler, n_avg=3000, rng=rng, check_trials=3000)
    np.testing.assert_allclose(gram, grouprep.analytic_gram(space).matrix, atol=1e-10)


def test_quantum_gram_matches_scaled_trace_product(rng):
    for n in (2, 3):
        space = ss.build_quantum(n)
        gram = grouprep.analytic_gram(space)
        for _ in range(20):
            a = space.bloch(haar.sample_pures(space, rng, 1)[0])
            b = space.bloch(haar.sample_pures(space, rng, 1)[0])
            expected = n / (n - 1) * np.trace(space.to_matrix(a) @ space.to_matrix(b)).real
            assert abs(gram.inner(a, b) - expected) < 1e-12


def test_classical_gram_matches_scaled_componentwise(rng):
    n = 5
    space = ss.build_classical(n)
    gram = grouprep.analytic_gram(space)
    for _ in range(20):
        a = space.bloch(haar.sample_pures(space, rng, 1)[0])
        b = space.bloch(haar.sample_pures(space, rng, 1)[0])
        assert abs(gram.inner(a, b) - n / (n - 1) * np.dot(a, b)) < 1e-12


def test_square_gram_is_euclidean_on_bloch_plane():
    gram = grouprep.analytic_gram(ss.build_polygon(4))
    np.testing.assert_allclose(gram.matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_gram_pure_norm_and_invariance(rng):
    for space in (ss.build_quantum(2), ss.build_classical(3), ss.build_polygon(5)):
        gram = grouprep.analytic_gram(space)
        sampler = haar.sampler_for(space)
        p = grouprep.GramMatrix(1.0, space.order_unit).matrix
        for _ in range(100):
            phi = space.bloch(haar.sample_pures(space, rng, 1)[0])
            assert abs(gram.norm_sq(phi) - 1.0) < 1e-12
            t = haar.draw_many(sampler, rng, 1)[0]
            x, y = p @ rng.normal(size=space.K), p @ rng.normal(size=space.K)
            assert abs(gram.inner(t @ x, t @ y) - gram.inner(x, y)) < 1e-8


def test_gram_seed_cross_check(rng):
    space = ss.build_quantum(2)
    sampler = haar.sampler_for(space)
    g1 = haar.invariant_gram(space, sampler, n_avg=2000,
                             rng=np.random.default_rng(1), check_trials=2000)
    g2 = haar.invariant_gram(space, sampler, n_avg=2000,
                             rng=np.random.default_rng(2), check_trials=2000)
    np.testing.assert_allclose(g1, g2, atol=1e-9)


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

    sampler = haar.GroupSampler(space, draw_many)
    return space, sampler


def test_check_irreducible_flags_reducible_rep(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    dev = haar.check_irreducible(space, sampler, trials=3000, rng=rng)
    assert dev > 0.3
    with pytest.raises(ReducibleSpaceError):
        haar.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=3000)


def test_check_irreducible_pentagon_exact():
    space = ss.build_polygon(5)
    sampler = haar.sampler_for(space)
    assert haar.check_irreducible(space, sampler) < 1e-10


def test_check_irreducible_qubit_statistical():
    space = ss.build_quantum(2)
    sampler = haar.sampler_for(space)
    dev = haar.check_irreducible(
        space, sampler, trials=100_000, rng=np.random.default_rng(3), n_probes=1
    )
    assert dev < 1e-2


# Fewer than two sampled elements give no standard error and no threshold; the
# reducible cylinder read as irreducible (trials 0), divided by zero (check
# trials 0), passed the check (check trials 1) or averaged to NaN (n_avg 0).


def test_check_irreducible_refuses_zero_trials(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        haar.check_irreducible(space, sampler, trials=0, rng=rng)


def test_check_irreducible_refuses_zero_probes():
    space = ss.build_polygon(5)
    with pytest.raises(RangeError, match="at least 1 probe, got 0"):
        haar.check_irreducible(space, haar.sampler_for(space), n_probes=0)


def test_invariant_gram_refuses_zero_check_trials(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        haar.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=0)


def test_invariant_gram_refuses_one_check_trial(rng):
    space, sampler = _reducible_cylinder_space_and_sampler()
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 1"):
        haar.invariant_gram(space, sampler, n_avg=100, rng=rng, check_trials=1)


def test_invariant_gram_refuses_zero_averaging_samples(rng):
    space = ss.build_quantum(2)
    with pytest.raises(RangeError, match="at least 2 samples for a standard error, got 0"):
        haar.invariant_gram(space, haar.sampler_for(space), n_avg=0, rng=rng)


# -- the group-average primitive ------------------------------------------------------------


@pytest.mark.parametrize("space,order", [(ss.build_classical(4), 24), (ss.build_polygon(5), 10)],
                         ids=["classical-4", "polygon-5"])
def test_group_average_sums_an_enumerated_group_exactly(space, order):
    sampler = haar.sampler_for(space)
    v = np.random.default_rng(5).normal(size=space.K)

    def f(ts):
        return (ts @ v) ** 2

    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    avg = haar.group_average(sampler, f, rng, 0)
    expected = sum(f(t[None])[0] for t in sampler.elements) / order
    assert avg.exact
    assert avg.n_samples == order
    np.testing.assert_allclose(avg.mean, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(avg.stderr, np.zeros(space.K))
    assert rng.bit_generator.state == state


def test_group_average_samples_as_the_concatenated_draw_blocks_route():
    # The route of ``verify pauli-identities``' haar-average-qubit check.
    qubit = ss.build_quantum(2)
    sampler = haar.sampler_for(qubit)
    x = pur.complete_pauli_set(qubit)[0]
    omega = haar.sample_pures(qubit, np.random.default_rng(11), 1)[0]

    def f(ts):
        return x.evaluate_many(ts @ omega) ** 2

    trials = 2 * haar.DRAW_BLOCK + 500
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    avg = haar.group_average(sampler, f, rng, trials)
    vals = np.concatenate([f(ts) for ts in haar.draw_blocks(sampler, ref, trials)])
    assert not avg.exact
    assert avg.n_samples == trials
    assert avg.mean == vals.mean()
    assert avg.stderr == vals.std(ddof=1) / math.sqrt(trials)
    assert rng.bit_generator.state == ref.bit_generator.state
    pauli = haar.pauli_haar_average(qubit, sampler, x, omega, trials, np.random.default_rng(12))
    assert pauli == (avg.mean, avg.stderr, trials, False)
    assert type(pauli.mean) is float and type(pauli.stderr) is float


def test_group_average_sums_array_values_block_by_block():
    sampler = haar.sampler_for(ss.build_quantum(2))
    trials = 2 * haar.DRAW_BLOCK + 500
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    avg = haar.group_average(sampler, lambda ts: ts, rng, trials)
    expected = sum(ts.sum(axis=0) for ts in haar.draw_blocks(sampler, ref, trials)) / trials
    assert not avg.exact
    assert avg.n_samples == trials
    assert avg.stderr is None
    np.testing.assert_array_equal(avg.mean, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_group_average_refuses_what_it_holds_before_any_draw(monkeypatch):
    sampler = haar.sampler_for(ss.build_quantum(2))
    # Room for draws of ten elements on K = 4 coordinates.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", haar._DRAW_BYTES_PER_ENTRY * 16 * 10)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def kron_square(ts):
        return np.einsum("bij,bkl->bikjl", ts, ts).reshape(len(ts), 16, 16)

    # One block of ten (16, 16) values and their sum: 8 * 11 * 256 bytes.
    with pytest.raises(RangeError, match="a block of 10 per-sample values of width 256 "
                                         "and their sum would need 22528 bytes"):
        haar.group_average(sampler, kron_square, rng, 1000)
    # Scalar values are kept, and concatenated: 2 * 8 * 1000 bytes.
    with pytest.raises(RangeError, match="2 arrays of 1000 per-sample values would need 16000 bytes"):
        haar.group_average(sampler, lambda ts: ts[:, 0, 0], rng, 1000)
    assert rng.bit_generator.state == state
    # (4, 4) values are never wider than their draws.
    assert haar.group_average(sampler, lambda ts: ts, rng, 1000).mean.shape == (4, 4)


def test_array_averages_do_not_grow_with_the_trial_count(monkeypatch):
    # Keeping 5000 sampled (4, 4) values and their concatenation would need
    # 1280000 bytes; one block of them and their sum fit in 1 MiB.
    monkeypatch.setattr(errors, "MEMORY_CAP_BYTES", 1 << 20)
    qubit = ss.build_quantum(2)
    sampler = haar.sampler_for(qubit)
    dev = haar.check_irreducible(qubit, sampler, trials=5000, rng=np.random.default_rng(1))
    assert dev < 10 / math.sqrt(5000)
    gram = haar.invariant_gram(qubit, sampler, n_avg=5000, rng=np.random.default_rng(2),
                               check_trials=5000)
    np.testing.assert_allclose(gram, grouprep.analytic_gram(qubit).matrix, atol=1e-10)


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
    us = grouprep.clifford_unitaries() if k == 1 else cliffords.two_qubit_unitaries()
    a = np.einsum("gij,gkl->gikjl", us, us).reshape(len(us), -1)
    dd = d * d
    lhs = (a.T @ a.conj() / len(us)).reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3)
    lhs = lhs.reshape(dd * dd, dd * dd)
    swap = swap_operator(d)
    pi_s, pi_a = (np.eye(dd) + swap) / 2, (np.eye(dd) - swap) / 2
    rhs = (2.0 / (d * (d + 1))) * np.outer(pi_s.ravel(), pi_s.ravel()) + (
        2.0 / (d * (d - 1))
    ) * np.outer(pi_a.ravel(), pi_a.ravel())
    return lhs, rhs


def test_two_design_identity_k1():
    # two-design reads F as the count of the forms that the generators' Pauli
    # maps fix; the oracle sums |Tr g|^4 over every element.
    num, den = clifford.frame_potential(clifford.clifford_traces(1))
    assert num == 2 * den == gr.invariant_form_count(gr.clifford_generators(1), 2) * den


def test_two_design_superoperator_on_identity_and_swap():
    lhs, rhs = _two_design_superoperators(1)
    d = 2
    ident = np.eye(d * d)
    np.testing.assert_allclose((lhs @ ident.ravel()).reshape(4, 4), ident, atol=1e-12)
    np.testing.assert_allclose((rhs @ ident.ravel()).reshape(4, 4), ident, atol=1e-12)
    swap = swap_operator(d)
    # Direct evaluation of the projector side: Tr(pi_s S) = Tr(pi_s) and
    # Tr(pi_a S) = -Tr(pi_a), so the right side returns pi_s - pi_a = S.
    np.testing.assert_allclose((rhs @ swap.ravel()).reshape(4, 4), swap, atol=1e-12)
    np.testing.assert_allclose((lhs @ swap.ravel()).reshape(4, 4), swap, atol=1e-12)


@pytest.mark.parametrize("k,bound", [(1, 1e-12), (2, 1e-11)])
def test_superoperators_agree_and_lhs_trace_is_frame_potential(k, bound):
    lhs, rhs = _two_design_superoperators(k)
    assert np.max(np.abs(lhs - rhs)) < bound
    num, den = clifford.frame_potential(clifford.clifford_traces(k))
    frame = num / den
    assert abs(np.trace(lhs) - frame) < 1e-12
    # F - 2 is the squared Frobenius distance between the two sides.
    assert abs(np.linalg.norm(lhs - rhs) ** 2 - (frame - 2.0)) < bound


def test_pauli_group_is_not_a_two_design():
    # {I, X, Y, Z} is a 1-design only: F = 4 exactly, and F = 16 for two qubits,
    # from the oracle's traces and from the forms that the Pauli maps fix.
    paulis = [clifford._perm([0, 1]), clifford._perm([1, 0]), clifford._perm([1, 0], [-1j, 1j]),
              clifford._perm([0, 1], [1, -1])]
    for k, group in ((1, paulis), (2, [clifford._kron(a, b) for a in paulis for b in paulis])):
        d = 2**k
        num, den = clifford.frame_potential((kg, sum(g[::d + 1])) for kg, g in group)
        assert num == 4**k * den
        us = np.array([cliffords.entries(e) for e in group]).reshape(-1, d, d)
        assert gr.invariant_form_count(tuple(cliffords.pauli_maps(us)), 2) == 4**k


def _float_closure_keys(us):
    """The key of each unitary of a stack: its entries rounded to 9 decimals after the
    phase that makes the first entry of row 0 with modulus above 1e-9 real and positive."""
    row = us[:, 0, :]
    first = row[np.arange(len(us)), np.argmax(np.abs(row) > 1e-9, axis=1)]
    raw = (np.round(us * (first.conj() / np.abs(first))[:, None, None], 9) + 0.0).tobytes()
    step = len(raw) // len(us)
    return [raw[i:i + step] for i in range(0, len(raw), step)]


@pytest.mark.parametrize("k,digest", [
    (1, "a8a60e4851b0b1d70283eb7385bc209f5c77cdf404a31c5d83f595baa284a5ea"),
    (2, "08bc711ea4c8fb8b97c6f288569a32783b8e4b6f635de15411954157e7a31cd1"),
])
def test_clifford_closure_order_is_frozen(k, digest):
    # sha256 of the ordered rounded keys: the closure's discovery order for
    # k = 1, local pair major over the 20 coset representatives for k = 2.
    # The digests were recorded on stacks enumerated in floating point, so the
    # exact groups hold the same elements modulo phase in the same order.
    import hashlib

    us = grouprep.clifford_unitaries() if k == 1 else cliffords.two_qubit_unitaries()
    assert hashlib.sha256(b"".join(_float_closure_keys(us))).hexdigest() == digest


# The sha256 of the qubit's Clifford stack, its conjugations and its Pauli
# orbit, printed by a fresh interpreter.
_CLIFFORD_DIGESTS = """
import hashlib
from reference import grouprep, statespace as ss
qubit = ss.build_quantum(2)
for a in (grouprep.clifford_unitaries(), grouprep.clifford_elements(qubit),
          grouprep.orbit_pures(qubit)):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_clifford_stacks_do_not_depend_on_cpu_dispatch():
    # The stack is exact, and every complex product of its conjugations is
    # elementwise in real arithmetic, so numpy's x86-64-v2 dispatch gives the
    # bytes of the default dispatch.
    paths = [str(Path(errors.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    digests = []
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}):
        proc = subprocess.run([sys.executable, "-c", _CLIFFORD_DIGESTS], capture_output=True,
                              text=True, env={**env, **setting}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_two_design_identity_k2():
    num, den = clifford.frame_potential(clifford.clifford_traces(2))
    assert num == 2 * den == gr.invariant_form_count(gr.clifford_generators(2), 2) * den


def test_factored_clifford_traces_match_the_enumerated_group():
    # Element by element in enumeration order, |Tr g|^2 = |t|^2 / 2^k from
    # the factors equals that of the enumerated group, whose elements are
    # canonical, exactly.
    enumerated = [(k, sum(g[::5])) for k, g in cliffords.two_qubit_elements()]
    factored = list(clifford.clifford_traces(2))
    assert len(factored) == 11520

    def sq(t):
        return int(t.real) ** 2 + int(t.imag) ** 2

    assert all(sq(t) << kf == sq(tf) << k for (k, t), (kf, tf) in zip(enumerated, factored))
    num, den = clifford.frame_potential(enumerated)
    assert num == 2 * den
    # k = 1 takes the traces of the group itself: those of the complex stack.
    np.testing.assert_array_equal(
        np.trace(grouprep.clifford_unitaries(), axis1=1, axis2=2),
        [cliffords.entries((k, (t,)))[0] for k, t in clifford.clifford_traces(1)])


def test_clifford_2q_cosets_equal_the_generated_closure():
    # The coset construction against the exact breadth-first closure over its
    # generators H (x) I, I (x) H, S (x) I, I (x) S and CNOT, as unitaries and
    # as grouprep's signed permutations of the 16 Pauli coordinates.
    els = cliffords.two_qubit_elements()
    assert len(set(els)) == 11520
    us = cliffords.two_qubit_unitaries()
    assert us.shape == (11520, 4, 4) and not us.flags.writeable
    h, s, eye = clifford._HADAMARD, clifford._PHASE, clifford._perm([0, 1])
    closure = clifford._closure([clifford._kron(h, eye), clifford._kron(eye, h),
                                 clifford._kron(s, eye), clifford._kron(eye, s),
                                 clifford._perm([0, 1, 3, 2])])
    assert len(closure) == 11520
    assert set(closure) == set(els)
    # gptpurity.grouprep's five generators close, in the reference closure, to the Pauli
    # conjugations of the same elements.  Each is checked first, so a wrong one cannot
    # close a larger group.
    maps = set(cliffords.pauli_maps(us))
    assert set(gr.clifford_generators(2)) <= maps
    group = grouprep.closure(gr.clifford_generators(2), 2)
    assert len(group) == 11520
    assert set(group) == maps


def test_unsupported_clifford_order():
    with pytest.raises(UnsupportedSpaceError):
        clifford.clifford_traces(3)
    for k in (0, 3):
        with pytest.raises(UnsupportedSpaceError):
            gr.clifford_generators(k)


def test_local_cliffords_count_4_on_both_routes():
    # Negative control: C_1 (x) C_1 is no two-qubit 2-design, F = 2 * 2 from the
    # oracle's traces and from the forms that H and S on either qubit fix.
    c1 = clifford.one_qubit_group()
    local = (clifford._kron(a, b) for a in c1 for b in c1)
    num, den = clifford.frame_potential((kg, sum(g[::5])) for kg, g in local)
    assert num == 4 * den
    assert gr.invariant_form_count(gr.clifford_generators(2)[:4], 2) == 4


def test_sample_dihedral_draws_group_elements(rng):
    space = ss.build_polygon(5)
    sampler = haar.sampler_for(space)
    elements = sampler.elements
    for _ in range(20):
        t = haar.draw_many(sampler, rng, 1)[0]
        assert any(np.allclose(t, e, atol=1e-12) for e in elements)


def test_large_classical_group_is_finite_but_not_enumerated(rng):
    sampler = haar.sampler_for(ss.build_classical(8))
    assert sampler.elements is None
    t = haar.draw_many(sampler, rng, 1)[0]
    np.testing.assert_allclose(t.sum(axis=0), 1.0)


@pytest.mark.parametrize(
    "space",
    [ss.build_quantum(3), ss.build_classical(5), ss.build_real_quantum(3), ss.build_polygon(5),
     compose(ss.build_quantum(2), ss.build_quantum(3)).joint],
    ids=["quantum-3", "classical-5", "real-quantum-3", "polygon-5", "quantum-2x3"],
)
def test_scale_only_gram_matches_dense_projector(space, rng):
    gram = grouprep.analytic_gram(space)
    u = space.order_unit
    dense = gram.scale * (np.eye(space.K) - np.outer(u, u) / (u @ u))
    np.testing.assert_allclose(gram.matrix, dense, atol=1e-12)
    rows = rng.normal(size=(6, space.K))
    np.testing.assert_allclose(gram.apply(rows), rows @ dense, atol=1e-12)
    np.testing.assert_allclose(gram.apply(rows[0]), dense @ rows[0], atol=1e-12)
    np.testing.assert_allclose(gram.norms_sq(rows), np.einsum("bk,kl,bl->b", rows, dense, rows),
                               atol=1e-12)
    for x, y in zip(rows[:-1], rows[1:]):
        assert abs(gram.inner(x, y) - x @ dense @ y) < 1e-12
        assert abs(gram.norm_sq(x) - x @ dense @ x) < 1e-12


@pytest.mark.parametrize("space,order", [
    (ss.build_polygon(5), 10), (ss.build_classical(4), 24), (build_boxworld_bipartite(), 128),
], ids=["polygon-5", "classical-4", "boxworld-bipartite"])
def test_enumerated_draws_are_one_gather_of_the_element_list(space, order):
    # An enumerated group draws through its draw function like every other
    # sampler; the stream is that of one gather at uniform indices.
    sampler = group_sampler(space)
    elements = sampler.elements
    assert len(elements) == order
    for s in (4250, 4251, 4252):
        expected = elements[np.random.default_rng(s).integers(len(elements), size=50)]
        drawn = haar.draw_many(sampler, np.random.default_rng(s), 50)
        np.testing.assert_array_equal(drawn, expected)
