import math
import tracemalloc

import numpy as np
import pytest

from gptpurity import boxworld as bw
from gptpurity import grouprep as gr
from gptpurity import statespace as ss
from reference import grouprep
import haar
from states import (BOXWORLD_PRODUCT_COUNT, BoxworldGram, ConeError, boxworld_generators,
                    boxworld_group_elements, boxworld_pr_state, boxworld_purity,
                    build_boxworld_bipartite, cone_contains, group_sampler, random_mixtures)

# The exact rescaled basis (1, sqrt2 x, sqrt2 y) on each gbit, back to the
# float descriptor's (1, x, y): coordinate 3 i + j scales by s_i s_j.
_LOCAL = np.array([1.0, 1 / math.sqrt(2), 1 / math.sqrt(2)])
_UNSCALE = np.kron(_LOCAL, _LOCAL)


def _matrix(t):
    """The 9 x 9 matrix of an exact signed permutation."""
    m = np.zeros((9, 9))
    for i, (p, e) in enumerate(zip(*t)):
        m[i, p] = (-1) ** e
    return m


def _unscaled(v):
    return np.array(v) * _UNSCALE


def _keys(vectors):
    return {tuple(np.round(v, 12) + 0.0) for v in vectors}


def test_exact_vertices_are_the_reference_vertices():
    # The 16 products in the reference's order, then the 8 PR-type states, the orbit
    # of the canonical PR box (``grouprep.orbit``), against the reference's D4 x D4
    # orbit as a set, since the breadth-first order over the generators is not the
    # reference's loop order; the canonical PR box comes first.
    verts = bw.vertices()
    assert len(verts) == 24 and len(set(verts)) == 24
    assert all(set(v) <= {-1, 0, 1} for v in verts)
    ref = build_boxworld_bipartite().vertices
    np.testing.assert_allclose([_unscaled(v) for v in verts[:BOXWORLD_PRODUCT_COUNT]],
                               ref[:BOXWORLD_PRODUCT_COUNT], rtol=0, atol=1e-15)
    assert _keys(_unscaled(v) for v in verts[BOXWORLD_PRODUCT_COUNT:]) == _keys(
        ref[BOXWORLD_PRODUCT_COUNT:])
    assert verts[BOXWORLD_PRODUCT_COUNT] == bw.PR
    np.testing.assert_allclose(_unscaled(bw.PR), boxworld_pr_state(), rtol=0, atol=1e-15)


def test_exact_signed_permutations_are_the_reference_elements():
    # Each element is 0/+-1 in both bases, since it maps each local
    # coordinate pair (x, y) onto itself up to order and sign.  The generators are
    # the reference's, in order, and their closure is the reference's 128 maps.
    np.testing.assert_array_equal([_matrix(t) for t in bw.GENERATORS], boxworld_generators())
    ts = grouprep.closure(bw.GENERATORS, 2)
    assert len(ts) == 128 and len(set(ts)) == 128
    assert _keys(_matrix(t).ravel() for t in ts) == _keys(
        m.ravel() for m in boxworld_group_elements())


def test_invariant_forms_match_the_elimination():
    # The exact count against the characters over the same group and the float
    # elimination of its symmetric forms.  Each group fixes only symmetric
    # forms; the identity fixes all 81, of which 45 are symmetric.
    # The local maps D4 x D4, without the swap, fix one more.
    identity = ((tuple(range(9)), (0,) * 9),)
    for maps, expected, symmetric in ((bw.GENERATORS, 3, 3),
                                      (grouprep.closure(bw.GENERATORS, 2), 3, 3),
                                      (grouprep.closure(bw.GENERATORS[:4], 2), 4, 4),
                                      (identity, 81, 45)):
        assert gr.invariant_form_count(maps, 2) == expected
        assert grouprep.character_form_count(grouprep.closure(maps, 2), 2) == expected
        assert grouprep.invariant_form_dimension(np.array([_matrix(t) for t in maps])) == symmetric


def test_pure_product_states_have_purity_one():
    prod = [bw.purity(v) for v in bw.vertices()[:BOXWORLD_PRODUCT_COUNT]]
    assert prod == [1] * 16
    assert all(isinstance(p, ss.Cyc) for p in prod)
    for v in bw.vertices()[:BOXWORLD_PRODUCT_COUNT]:
        assert abs(boxworld_purity(_unscaled(v)) - 1.0) <= 1e-15


def test_pr_state_purity_is_exactly_one_third():
    assert boxworld_purity(boxworld_pr_state()) == 1 / 3
    pr = [bw.purity(v) for v in bw.vertices()[BOXWORLD_PRODUCT_COUNT:]]
    assert pr == [ss.rational(1, 3)] * 8
    for v in bw.vertices()[BOXWORLD_PRODUCT_COUNT:]:
        assert abs(boxworld_purity(_unscaled(v)) - 1 / 3) <= 1e-15


def test_max_mixed_has_zero_purity():
    assert bw.purity((1, 0, 0, 0, 0, 0, 0, 0, 0)) == 0
    assert boxworld_purity(build_boxworld_bipartite().max_mixed) == 0.0


def test_purity_rejects_states_outside_cone():
    bad = np.zeros(9)
    bad[0] = 1.0
    bad[4] = 2.0
    with pytest.raises(ConeError):
        boxworld_purity(bad)


def test_purity_bounds_and_zero_iff_max_mixed(rng):
    space = build_boxworld_bipartite()
    for omega in random_mixtures(space, 500, rng):
        p = boxworld_purity(omega)
        assert -1e-12 <= p <= 1 + 1e-12
        if p < 1e-10:
            np.testing.assert_allclose(omega, space.max_mixed, atol=1e-4)


def test_sqrt_purity_convexity(rng):
    space = build_boxworld_bipartite()
    for _ in range(200):
        states = random_mixtures(space, 3, rng)
        lam = rng.dirichlet(np.ones(3))
        mixed = lam @ states
        lhs = math.sqrt(boxworld_purity(mixed))
        rhs = sum(l * math.sqrt(boxworld_purity(s)) for l, s in zip(lam, states))
        assert lhs <= rhs + 1e-12


def test_purity_invariant_under_full_group(rng):
    space = build_boxworld_bipartite()
    elements = boxworld_group_elements()
    assert len(elements) == 128
    for omega in random_mixtures(space, 20, rng):
        p = boxworld_purity(omega)
        for t in elements[::7]:
            assert abs(boxworld_purity(t @ omega) - p) < 1e-12


def test_default_gram_invariance_over_full_group():
    # The suite checks the generators alone, which generate all 128 maps.
    group = grouprep.closure(bw.GENERATORS, 2)
    assert len(group) == 128
    assert gr.invariance_deviation(bw.GRAM, group, 2) == 0
    assert grouprep.invariance_deviation(BoxworldGram().matrix(), boxworld_group_elements()) < 1e-12


def test_group_elements_preserve_cone(rng):
    space = build_boxworld_bipartite()
    sampler = group_sampler(space)
    for omega in random_mixtures(space, 10, rng):
        t = haar.draw_many(sampler, rng, 1)[0]
        assert cone_contains(space, t @ omega)


def test_obstruction_solution_is_three_zero():
    assert bw.normalizing_weights() == (3, 0)
    # Coefficients of (a, b) in the two purity expressions, on the first product and
    # the first PR vertex: (1/3, 2/3), (1/3, 0).
    verts = bw.vertices()
    assert [(bw.purity(v, 1, 0), bw.purity(v, 0, 1))
            for v in (verts[0], verts[BOXWORLD_PRODUCT_COUNT])] == [
        (ss.rational(1, 3), ss.rational(2, 3)), (ss.rational(1, 3), 0)]


def test_obstruction_degenerate_gram_zero_on_nontrivial_state():
    a, b = bw.normalizing_weights()
    assert bw.purity(bw.MARGINAL_STATE, a, b) == 0
    witness = _unscaled(bw.MARGINAL_STATE)
    space = build_boxworld_bipartite()
    assert np.max(np.abs(witness - space.max_mixed)) > 0.5
    assert boxworld_purity(witness, BoxworldGram(a=3.0, b=0.0)) == 0.0


def test_degenerate_gram_normalizes_both_families():
    a, b = bw.normalizing_weights()
    assert [bw.purity(v, a, b) for v in bw.vertices()] == [1] * 24
    degenerate = BoxworldGram(a=3.0, b=0.0)
    for v in bw.vertices():
        assert abs(boxworld_purity(_unscaled(v), degenerate) - 1.0) <= 1e-15


def test_purity_separates_vertex_classes_over_group(monkeypatch):
    assert bw.transitivity_obstruction_witness()
    # A generator outside the group (the swap of coordinates 1 and 4) takes some
    # product vertex off the vertex set, and the witness fails.
    off = ((0, 4, 2, 3, 1, 5, 6, 7, 8), (0,) * 9)
    monkeypatch.setattr(bw, "GENERATORS", (*bw.GENERATORS, off))
    assert not bw.transitivity_obstruction_witness()


def test_the_witness_walks_two_orbits_in_little_memory(monkeypatch):
    # The orbits of the first product vertex and of PR decide it.  A walk from
    # each of the 24 vertices peaks at 183 KiB of traced 9-tuples; the two walks
    # of 16 and 8 states stay far below 64 KiB.  The vertices are cached first,
    # so their own walk from PR is not counted.
    bw.vertices()
    walks, walk = [], gr.orbit

    def orbit(v, maps, r):
        walks.append(v)
        return walk(v, maps, r)

    with monkeypatch.context() as m:
        m.setattr(bw.grouprep, "orbit", orbit)
        assert bw.transitivity_obstruction_witness()
    assert walks == [bw.vertices()[0], bw.PR]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert bw.transitivity_obstruction_witness()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 64 * 1024
