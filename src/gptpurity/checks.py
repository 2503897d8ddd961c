"""The verification registry: every verdict is a deviation against a bound.

A ``Check`` passes when its non-negative deviation ``value`` is at most its
``bound``, so a NaN deviation fails.  ``SUITES`` maps each ``verify`` suite to
a ``(seed, samples) -> list[Check]`` producer, shared by the command line and
the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxworld as bw
from . import composite as comp_mod
from . import grouprep
from . import randomize as rnd
from . import statespace as ss
from .errors import RangeError
from .grouprep import GramMatrix
from .purity import (
    MIXED_PURITY_FLOOR,
    complete_pauli_set,
    pauli_haar_average,
    pauli_vectors,
    purity,
    purity_via_pauli_set,
)
from .statespace import SpaceDescriptor

# Tolerance of the exact identities checked in floating point.
EXACT = 1e-12


@dataclass(frozen=True)
class Check:
    """A named non-negative deviation and the bound it must not exceed."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "passed": self.passed}


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("mk,mk->m", x, y)


def pauli_identity_deviations(space: SpaceDescriptor, states: np.ndarray) -> tuple[float, float]:
    """Largest deviations of the complete-Pauli-set and collision identities.

    Over the rows of a (m, K) stack of states, the first is
    |(purity via the complete set) - P|; the second is
    |1/2 (1 + X(omega)^2) - 1/2 (1 + P)| for the optimizer X of
    ``max_collision_probability``, the Pauli map along the state's own Bloch
    direction (1/2 for a state without one).  Every term is computed for the
    whole stack at once.
    """
    gram = grouprep.analytic_gram(space)
    pset = complete_pauli_set(space, gram)
    b = space.bloch(states)
    p = gram.norms_sq(b)
    dev = np.max(np.abs(purity_via_pauli_set(pset, states) - p), initial=0.0)
    attained = np.full(len(b), 0.5)
    directed = p >= MIXED_PURITY_FLOOR
    x = gram.apply(pauli_vectors(space, gram, b[directed]))
    attained[directed] = 0.5 * (1.0 + _row_dots(x, b[directed]) ** 2)
    cdev = np.max(np.abs(attained - 0.5 * (1.0 + p)), initial=0.0)
    return float(dev), float(cdev)


def invariance_deviation(gram: GramMatrix, ts: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest |<T_i x_i, T_i y_i> - <x_i, y_i>| in the Gram product over stacked triples."""
    tx = np.einsum("mkl,ml->mk", ts, xs)
    ty = np.einsum("mkl,ml->mk", ts, ys)
    diff = _row_dots(gram.apply(tx), ty) - _row_dots(gram.apply(xs), ys)
    return float(np.max(np.abs(diff), initial=0.0))


def _pauli_identities(seed: int, samples: int) -> list[Check]:
    checks = []
    rng = np.random.default_rng(seed)
    spaces = {"qubit": ss.build_quantum(2), "classical-4": ss.build_classical(4),
              "square": ss.build_polygon(4), "pentagon": ss.build_polygon(5)}
    for name, space in spaces.items():
        dev, cdev = pauli_identity_deviations(space, ss.random_mixtures(space, 200, rng))
        checks.append(Check(f"complete-set-{name}", dev, 1e-10))
        checks.append(Check(f"collision-{name}", cdev, 1e-10))
    qubit = spaces["qubit"]
    gram = grouprep.analytic_gram(qubit)
    sampler = grouprep.sampler_for(qubit)
    x = complete_pauli_set(qubit, gram).maps[0]
    omega = qubit.sample_pure(rng)
    avg = pauli_haar_average(qubit, sampler, x, omega, n_samples=samples, rng=rng)
    expected = purity(qubit, gram, omega) / (qubit.K - 1)
    checks.append(Check("haar-average-qubit", abs(avg.mean - expected), 3.0 * avg.stderr))
    return checks


def _gram_invariance(seed: int, samples: int) -> list[Check]:
    checks = []
    rng = np.random.default_rng(seed)
    for space in (ss.build_quantum(2), ss.build_quantum(3), ss.build_classical(3),
                  ss.build_classical(5), ss.build_polygon(4), ss.build_polygon(5),
                  ss.build_real_quantum(2)):
        ts = grouprep.sampler_for(space).draw_many(rng, 100)
        xs, ys = space.project_bloch(rng.normal(size=(2, 100, space.K)))
        dev = invariance_deviation(grouprep.analytic_gram(space), ts, xs, ys)
        checks.append(Check(f"gram-invariance-{space.kind}-{space.level}", dev, 1e-8))
    return checks


def _classical_subsystem(seed: int, samples: int) -> list[Check]:
    checks = []
    for name, space in (("classical-2", ss.build_classical(2)),
                        ("classical-4", ss.build_classical(4)),
                        ("classical-8", ss.build_classical(8)),
                        ("qubit", ss.build_quantum(2)),
                        ("square-gbit", ss.build_boxworld_local())):
        gram = grouprep.analytic_gram(space)
        report = comp_mod.verify_centered_dynamical(space, gram, comp_mod.capacity_witness(space))
        checks.append(Check(f"centered-{name}",
                            max(report.center_deviation, report.gram_offdiag_deviation), 1e-10))
    pentagon = comp_mod.capacity_witness(ss.build_polygon(5))
    checks.append(Check("pentagon-not-centered", float(pentagon.centered), 0.0))
    return checks


def _markov_tail(seed: int, samples: int) -> list[Check]:
    comp = comp_mod.compose(ss.build_quantum(2), ss.build_quantum(8))
    report = rnd.estimate_expected_local_purity(comp, 1.0, samples, seed,
                                                histogram_bins=rnd.HISTOGRAM_BINS)
    tails = [rnd.markov_tail_check(report, x) for x in (2.0, 5.0, 10.0)]
    return [Check(f"markov-x-{t.x:g}", t.empirical, t.bound + 3 * t.binomial_sigma) for t in tails]


def _boxworld(seed: int, samples: int) -> list[Check]:
    prod_p, pr_p = bw.vertex_purities()
    obstruction = bw.boxworld_normalization_obstruction()
    return [
        Check("vertex-count", float(abs(len(bw.boxworld_space().vertices) - 24)), 0.0),
        Check("product-purity-one", float(np.max(np.abs(prod_p - 1.0))), EXACT),
        Check("pr-purity-one-third", float(np.max(np.abs(pr_p - 1.0 / 3.0))), 0.0),
        Check("obstruction-a", abs(obstruction.solution_a - 3.0), EXACT),
        Check("obstruction-b", abs(obstruction.solution_b), EXACT),
        Check("degenerate-zero-purity", abs(obstruction.zero_purity_value), EXACT),
        Check("group-invariance", bw.gram_invariance_deviation(), EXACT),
        Check("non-transitivity-witness",
              0.0 if bw.transitivity_obstruction_witness() else 1.0, 0.0),
    ]


SUITES = {
    "pauli-identities": _pauli_identities,
    "gram-invariance": _gram_invariance,
    "classical-subsystem": _classical_subsystem,
    "markov-tail": _markov_tail,
    "boxworld": _boxworld,
}


def run_suite(name: str, seed: int, samples: int) -> list[Check]:
    """The checks of suite ``name``; a negative seed is refused for every suite."""
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    return SUITES[name](seed, samples)

