"""The verification registry: deviations, bounds and the one verdict rule."""

import math

import numpy as np
import pytest

from gptpurity import checks, cli, grouprep
from gptpurity import statespace as ss
from gptpurity.errors import RangeError
from gptpurity.purity import CollisionResult, pauli_from_direction


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

    def wrong(space, gram, omega):
        # A Pauli map along a fixed direction instead of the state's own.
        x = pauli_from_direction(space, gram, np.eye(space.K)[1])
        return CollisionResult(value=0.5 * (1.0 + gram.norm_sq(space.bloch(omega))), optimizer=x)

    monkeypatch.setattr(checks, "max_collision_probability", wrong)
    _, cdev = checks.pauli_identity_deviations(space, states)
    assert cdev > 1e-3

