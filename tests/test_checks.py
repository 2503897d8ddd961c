"""The verification registry: deviations, bounds and the one verdict rule."""

import math

import numpy as np
import pytest

from gptpurity import checks, cli, grouprep
from gptpurity import statespace as ss
from gptpurity.errors import RangeError
from gptpurity.purity import (
    complete_pauli_set,
    max_collision_probability,
    pauli_from_direction,
    pauli_vectors,
    purity,
    purity_via_pauli_set,
)


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_check_is_a_deviation_under_its_bound_at_the_defaults(suite):
    args = cli.build_parser().parse_args(["verify", suite])
    results = checks.run_suite(suite, args.seed, args.samples)
    assert results
    for check in results:
        assert check.value >= 0, check
        assert check.passed == (check.value <= check.bound)
        assert check.passed, check


def test_a_nan_deviation_fails():
    assert not checks.Check("nan", math.nan, 1.0).passed
    assert checks.Check("edge", 1e-12, 1e-12).passed
    assert checks.Check("edge", 1e-12, 1e-12).to_json_dict() == {
        "name": "edge", "value": 1e-12, "bound": 1e-12, "passed": True}


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_suite_refuses_a_negative_seed(suite):
    with pytest.raises(RangeError, match="non-negative"):
        checks.run_suite(suite, -1, 100)


def test_boxworld_values_are_deviations():
    by_name = {c.name: c for c in checks.run_suite("boxworld", 0, 0)}
    assert by_name["vertex-count"].value == 0.0
    assert by_name["obstruction-a"].value <= 1e-12
    assert by_name["obstruction-b"].bound == 1e-12
    assert by_name["non-transitivity-witness"].value == 0.0


def test_collision_check_detects_a_wrong_optimizer(monkeypatch):
    space = ss.build_quantum(2)
    gram = grouprep.analytic_gram(space)
    states = ss.random_mixtures(space, 20, np.random.default_rng(3))
    dev, cdev = checks.pauli_identity_deviations(space, states)
    assert dev <= 1e-10 and cdev <= 1e-10

    # Pauli maps along a fixed direction instead of each state's own.  The map
    # is built before the patch, which ``pauli_from_direction`` would also see.
    x = pauli_from_direction(space, gram, np.eye(space.K)[1])

    def wrong(space, gram, directions):
        return np.tile(x.vector, (len(directions), 1))

    monkeypatch.setattr(checks.pur, "pauli_vectors", wrong)
    _, cdev = checks.pauli_identity_deviations(space, states)
    assert cdev > 1e-3


def _per_state_pauli_deviations(space, states):
    """The per-state route: one purity, Pauli-set sum and collision optimizer per state."""
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    dev = cdev = 0.0
    for omega in states:
        p = purity(space, gram, omega)
        dev = max(dev, abs(purity_via_pauli_set(pset, omega) - p))
        x = max_collision_probability(space, gram, omega).optimizer
        attained = 0.5 if x is None else 0.5 * (1.0 + x(omega) ** 2)
        cdev = max(cdev, abs(attained - 0.5 * (1.0 + p)))
    return dev, cdev


@pytest.mark.parametrize("space", [ss.build_quantum(2), ss.build_classical(4), ss.build_polygon(4),
                                   ss.build_polygon(5)], ids=lambda s: f"{s.kind}-{s.level}")
def test_batched_pauli_identities_match_the_per_state_route(space):
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    states = ss.random_mixtures(space, 50, np.random.default_rng(4250))
    states[0] = space.max_mixed  # no Bloch direction: the collision optimizer is absent
    np.testing.assert_allclose(
        purity_via_pauli_set(pset, states),
        [purity_via_pauli_set(pset, omega) for omega in states], rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram.norms_sq(space.bloch(states)),
                               [purity(space, gram, omega) for omega in states], rtol=0, atol=1e-12)
    b = space.bloch(states[1:])
    np.testing.assert_allclose(pauli_vectors(space, gram, b),
                               [pauli_from_direction(space, gram, v).vector for v in b],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(checks.pauli_identity_deviations(space, states),
                               _per_state_pauli_deviations(space, states), rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", [ss.build_quantum(3), ss.build_classical(5), ss.build_polygon(5),
                                   ss.build_real_quantum(2)], ids=lambda s: f"{s.kind}-{s.level}")
def test_batched_gram_invariance_matches_the_per_draw_route(space):
    gram = grouprep.analytic_gram(space)
    rng = np.random.default_rng(4260)
    ts = grouprep.sampler_for(space).draw_many(rng, 40)
    raw = rng.normal(size=(2, 40, space.K))
    xs, ys = space.project_bloch(raw)
    np.testing.assert_allclose(xs, raw[0] @ space.bloch_projector(), rtol=0, atol=1e-12)
    per_draw = max(abs(gram.inner(t @ x, t @ y) - gram.inner(x, y)) for t, x, y in zip(ts, xs, ys))
    assert abs(checks.invariance_deviation(gram, ts, xs, ys) - per_draw) <= 1e-12
    # A map that is no group element breaks the invariance.
    assert checks.invariance_deviation(gram, 2.0 * ts, xs, ys) > 1e-3
