"""The verification registry: deviations, bounds and the one verdict rule."""

import math

import numpy as np
import pytest

from gptpurity import checks, cli, errors
from gptpurity import purity as exact_pur
from gptpurity import statespace as exact_ss
from gptpurity.errors import RangeError
from reference import grouprep
from reference import purity as pur
from reference import statespace as ss
from reference.purity import (
    complete_pauli_set,
    pauli_vectors,
    purity,
    purity_via_pauli_set,
)
import haar
from states import max_collision_probability, pauli_value, random_mixtures


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_check_is_a_deviation_under_its_bound_at_the_defaults(suite):
    args = cli.parse_args(["verify", suite])
    results = checks.run_suite(suite, args.seed, args.samples)
    assert results
    for check in results:
        assert check.value >= 0, check
        assert check.passed == (check.value <= check.bound)
        assert check.passed, check


def test_a_nan_deviation_fails():
    assert not errors.Check("nan", math.nan, 1.0).passed
    assert errors.Check("edge", 1e-12, 1e-12).passed
    assert errors.Check("edge", 1e-12, 1e-12).to_json_dict() == {
        "name": "edge", "value": 1e-12, "bound": 1e-12, "passed": True}


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_suite_refuses_a_negative_seed(suite):
    with pytest.raises(RangeError, match="non-negative"):
        checks.run_suite(suite, -1, 100)


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
@pytest.mark.parametrize("samples", [1, 0, -3])
def test_every_suite_refuses_fewer_than_two_samples(suite, samples):
    # Refused up front, also by the suites that read no sample count.
    with pytest.raises(RangeError, match=f"at least 2 samples.*got {samples}"):
        checks.run_suite(suite, 0, samples)


def test_boxworld_values_are_deviations():
    by_name = {c.name: c for c in checks.run_suite("boxworld", 0, 2)}
    # Every fact is an exact equality, so each value and bound is 0.
    assert len(by_name) == 9
    assert all(c.value == c.bound == 0.0 for c in by_name.values())


def test_collision_check_detects_a_wrong_optimizer(monkeypatch):
    space = ss.build_quantum(2)
    gram = grouprep.analytic_gram(space)
    states = ss.with_midpoints(grouprep.orbit_pures(space))
    dev, cdev = pur.pauli_identity_deviations(space, states)
    assert dev <= 1e-10 and cdev <= 1e-10

    # Pauli maps along a fixed direction instead of each state's own, built
    # before the patch.
    x = pauli_vectors(space, gram, np.eye(space.K)[1:2])

    def wrong(space, gram, directions):
        return np.tile(x[0], (len(directions), 1))

    monkeypatch.setattr(pur, "pauli_vectors", wrong)
    _, cdev = pur.pauli_identity_deviations(space, states)
    assert cdev > 1e-3


def test_a_doubled_gram_fails_the_collision_row(monkeypatch):
    # Twice the qubit's Gram gives each pure state purity 2, so the map along
    # its own direction reads X^2 = 2 on it and is no measurement: the row
    # reads <b, b>^2 - <b, b> = 2.  The other spaces' rows still pass.
    qubit = exact_ss.QUBIT
    monkeypatch.setattr(checks.ss, "QUBIT", qubit._replace(
        gram=tuple((ij, 2 * w) for ij, w in qubit.gram)))
    by_name = {c.name: c for c in checks.run_suite("pauli-identities", 0, 2)}
    assert (by_name["collision-qubit"].value, by_name["complete-set-qubit"].value) == (2.0, 2.0)
    assert not by_name["collision-qubit"].passed
    for name in ("classical-4", "square", "pentagon"):
        assert by_name[f"collision-{name}"].passed, name


def _per_state_pauli_deviations(space, states):
    """The per-state route: one purity, Pauli-set sum and collision optimizer per state."""
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    dev = cdev = 0.0
    for omega in states:
        p = purity(space, gram, omega)
        dev = max(dev, abs(purity_via_pauli_set(pset, omega) - p))
        x = max_collision_probability(space, gram, omega).optimizer
        attained = 0.5 if x is None else 0.5 * (1.0 + pauli_value(x, omega) ** 2)
        cdev = max(cdev, abs(attained - 0.5 * (1.0 + p)))
    return dev, cdev


@pytest.mark.parametrize("space", [ss.build_quantum(2), ss.build_classical(4), ss.build_polygon(4),
                                   ss.build_polygon(5)], ids=lambda s: f"{s.kind}-{s.level}")
def test_batched_pauli_identities_match_the_per_state_route(space):
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    states = random_mixtures(space, 50, np.random.default_rng(4250))
    states[0] = space.max_mixed  # no Bloch direction: the collision optimizer is absent
    np.testing.assert_allclose(
        purity_via_pauli_set(pset, states),
        [purity_via_pauli_set(pset, omega) for omega in states], rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram.norms_sq(space.bloch(states)),
                               [purity(space, gram, omega) for omega in states], rtol=0, atol=1e-12)
    b = space.bloch(states[1:])
    np.testing.assert_allclose(pauli_vectors(space, gram, b),
                               [pauli_vectors(space, gram, v[None])[0] for v in b],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(pur.pauli_identity_deviations(space, states),
                               _per_state_pauli_deviations(space, states), rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", [ss.build_quantum(3), ss.build_classical(5), ss.build_polygon(5),
                                   ss.build_real_quantum(2)], ids=lambda s: f"{s.kind}-{s.level}")
def test_batched_gram_invariance_matches_the_per_draw_route(space):
    # The stacked deviation of the suite against one product per drawn element.
    g = grouprep.analytic_gram(space).matrix
    ts = haar.draw_many(haar.sampler_for(space), np.random.default_rng(4260), 40)
    per_draw = max(np.max(np.abs(t.T @ g @ t - g)) for t in ts)
    assert abs(grouprep.invariance_deviation(g, ts) - per_draw) <= 1e-13
    assert grouprep.invariance_deviation(g, ts) <= errors.EXACT
    # A map that is no group element breaks the invariance.
    assert grouprep.invariance_deviation(g, 2.0 * ts) > 1e-3
    # The O(K) Bloch projection of the Pauli maps against the dense projector.
    raw = np.random.default_rng(4261).normal(size=(40, space.K))
    np.testing.assert_allclose(ss.project_off(raw, space.order_unit),
                               raw @ grouprep.GramMatrix(1.0, space.order_unit).matrix, rtol=0,
                               atol=1e-12)


GRAM_SPACES = [ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(3),
               ss.build_classical(5), ss.build_polygon(4), ss.build_polygon(5),
               ss.build_real_quantum(2)]


@pytest.mark.parametrize("space", GRAM_SPACES, ids=lambda s: f"{s.kind}-{s.level}")
def test_a_perturbed_gram_fails_its_generator_check(space):
    # The suite's seven spaces: one Bloch coordinate scaled by 1 + 1e-6
    # gives a form that no generator set of the group can leave invariant.
    g = grouprep.analytic_gram(space).matrix
    gens = grouprep.group_generators(space)
    assert grouprep.invariance_deviation(g, gens) <= errors.EXACT
    d = np.ones(space.K)
    d[1] += 1e-6
    assert grouprep.invariance_deviation(d[:, None] * g * d, gens) > 1e-7


def test_a_perturbed_pauli_set_fails_complete_set_on_the_fixed_states(monkeypatch):
    # The first map of every set tilted by 1e-6 along the second: on the
    # qubit's six pure states, each on one Pauli axis, the change is of
    # second order (1e-12), and their midpoints expose it at first order.
    complete_set = exact_pur.complete_pauli_set

    def tilted(space):
        pset = complete_set(space)
        tilt = exact_ss.rational(1, 10**6)
        return (tuple(a + tilt * b for a, b in zip(pset[0], pset[1])), *pset[1:])

    monkeypatch.setattr(checks.pur, "complete_pauli_set", tilted)
    qubit = exact_ss.QUBIT
    dev, _ = exact_pur.pauli_identity_deviations(qubit, qubit.pures)
    assert 0 < dev <= 1e-11

    by_name = {c.name: c for c in checks.run_suite("pauli-identities", 0, 2)}
    for name in ("qubit", "classical-4", "square", "pentagon"):
        assert by_name[f"complete-set-{name}"].value > 1e-7, name
        assert not by_name[f"complete-set-{name}"].passed


def test_pauli_identity_states_are_the_pure_orbit_and_its_midpoints():
    # Qubit: the six Pauli eigenstates (+-x, +-y, +-z on the Bloch sphere), 15 midpoints.
    qubit = ss.build_quantum(2)
    pures = grouprep.orbit_pures(qubit)
    gram = grouprep.analytic_gram(qubit)
    blochs = qubit.bloch(pures) * np.sqrt(2)
    np.testing.assert_allclose(np.sort(np.abs(blochs[:, 1:]).sum(axis=1)), np.ones(6), atol=1e-12)
    np.testing.assert_allclose(np.abs(blochs[:, 1:]).sum(axis=0), [2, 2, 2], atol=1e-12)
    np.testing.assert_allclose(gram.norms_sq(qubit.bloch(pures)), np.ones(6), atol=1e-12)
    states = ss.with_midpoints(pures)
    assert states.shape == (21, 4)
    np.testing.assert_array_equal(states[6], (pures[0] + pures[1]) / 2)
    np.testing.assert_array_equal(states[-1], (pures[4] + pures[5]) / 2)
    for space, count in ((ss.build_classical(4), 4), (ss.build_polygon(5), 5)):
        assert len(grouprep.orbit_pures(space)) == count
        assert len(ss.with_midpoints(grouprep.orbit_pures(space))) == count * (count + 1) // 2


def test_uniqueness_rows_fail_when_the_generators_fix_every_form(monkeypatch):
    # The identity alone leaves all K^2 forms invariant, so every row reads
    # that count less the expected 2 (3 for boxworld) and fails.
    monkeypatch.setattr(checks.grouprep, "group_generators",
                        lambda space: (2, ((tuple(range(len(space.mixed))), (0,) * len(space.mixed)),)))
    monkeypatch.setattr(checks.bw, "GENERATORS", ((tuple(range(9)), (0,) * 9),))
    rows = {c.name: c for c in checks.run_suite("gram-invariance", 0, 2)
            + checks.run_suite("boxworld", 0, 2)
            if c.name.startswith("gram-uniqueness-") or c.name == "invariant-forms"}
    expected = {"quantum-2": 14, "quantum-3": 79, "classical-3": 7, "classical-5": 23,
                "polygon-4": 7, "polygon-5": 7, "real-quantum-2": 7}
    assert {name: c.value for name, c in rows.items()} == {
        **{f"gram-uniqueness-{name}": float(v) for name, v in expected.items()},
        "invariant-forms": 78.0}
    assert not any(c.passed for c in rows.values())
