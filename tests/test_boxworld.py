import math

import numpy as np
import pytest

from gptpurity import boxworld as bw
from gptpurity import grouprep, statespace as ss
from gptpurity.errors import ConeError
import haar
from states import random_mixtures


def test_pure_product_states_have_purity_one():
    prod, _ = bw.vertex_purities()
    assert len(prod) == 16
    np.testing.assert_allclose(prod, 1.0, atol=1e-12)
    space = bw.boxworld_space()
    omega = np.kron(ss._GBIT_VERTICES[0], ss._GBIT_VERTICES[0])
    assert bw.boxworld_purity(omega) == pytest.approx(1.0, abs=1e-12)


def test_pr_state_purity_is_exactly_one_third():
    assert bw.boxworld_purity(ss.boxworld_pr_state()) == 1 / 3
    _, pr = bw.vertex_purities()
    assert len(pr) == 8
    assert np.all(pr == 1 / 3)


def test_max_mixed_has_zero_purity():
    space = bw.boxworld_space()
    assert bw.boxworld_purity(space.max_mixed) == 0.0


def test_purity_rejects_states_outside_cone():
    bad = np.zeros(9)
    bad[0] = 1.0
    bad[4] = 2.0
    with pytest.raises(ConeError):
        bw.boxworld_purity(bad)


def test_purity_bounds_and_zero_iff_max_mixed(rng):
    space = bw.boxworld_space()
    for omega in random_mixtures(space, 500, rng):
        p = bw.boxworld_purity(omega)
        assert -1e-12 <= p <= 1 + 1e-12
        if p < 1e-10:
            np.testing.assert_allclose(omega, space.max_mixed, atol=1e-4)


def test_sqrt_purity_convexity(rng):
    space = bw.boxworld_space()
    for _ in range(200):
        states = random_mixtures(space, 3, rng)
        lam = rng.dirichlet(np.ones(3))
        mixed = lam @ states
        lhs = math.sqrt(bw.boxworld_purity(mixed))
        rhs = sum(l * math.sqrt(bw.boxworld_purity(s)) for l, s in zip(lam, states))
        assert lhs <= rhs + 1e-12


def test_purity_invariant_under_full_group(rng):
    space = bw.boxworld_space()
    elements = grouprep.group_elements(space)
    assert len(elements) == 128
    for omega in random_mixtures(space, 20, rng):
        p = bw.boxworld_purity(omega)
        for t in elements[::7]:
            assert abs(bw.boxworld_purity(t @ omega) - p) < 1e-12


def test_default_gram_invariance_over_full_group():
    assert bw.gram_invariance_deviation() < 1e-12


def test_group_elements_preserve_cone(rng):
    space = bw.boxworld_space()
    sampler = haar.sampler_for(space)
    for omega in random_mixtures(space, 10, rng):
        t = haar.draw_many(sampler, rng, 1)[0]
        assert space.cone_contains(t @ omega)


def test_obstruction_solution_is_three_zero():
    rec = bw.boxworld_normalization_obstruction()
    assert rec.solution_a == pytest.approx(3.0, abs=1e-12)
    assert rec.solution_b == pytest.approx(0.0, abs=1e-12)
    assert rec.violated_constraint == "b > 0"
    # Coefficients of (a, b) in the two purity expressions: (1/3, 2/3), (1/3, 0).
    np.testing.assert_allclose(rec.product_coefficients, [1 / 3, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(rec.pr_coefficients, [1 / 3, 0.0], atol=1e-12)


def test_obstruction_degenerate_gram_zero_on_nontrivial_state():
    rec = bw.boxworld_normalization_obstruction()
    space = bw.boxworld_space()
    assert rec.zero_purity_value == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(rec.zero_purity_state - space.max_mixed)) > 0.5


def test_degenerate_gram_normalizes_both_families():
    rec = bw.boxworld_normalization_obstruction()
    degenerate = bw.BoxworldGram(a=rec.solution_a, b=rec.solution_b)
    prod, pr = bw.vertex_purities(degenerate)
    np.testing.assert_allclose(prod, 1.0, atol=1e-12)
    np.testing.assert_allclose(pr, 1.0, atol=1e-12)


def test_purity_separates_vertex_classes_over_group():
    assert bw.transitivity_obstruction_witness()
