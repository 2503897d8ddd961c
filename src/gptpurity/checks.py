"""The verification registry: every verdict is a deviation against a bound.

Every verdict is an ``errors.Check``.  ``markov_tail`` turns a
histogram-bearing Monte Carlo report into one.
``SUITES`` maps each ``verify`` suite to a ``(seed, samples) -> list[Check]``
producer, shared by the command line and the acceptance tests; it is the one
list of suite names.  Only ``markov-tail`` samples; the other suites are
exact, over fixed states and the forms and orbits of groups given by their
generators, and read neither argument.
Other layers are reached through module aliases only, so running this
module runs none of them.
"""

from __future__ import annotations

import math

from . import boxworld as bw
from . import composite as comp_mod
from . import formulas
from . import grouprep
from . import purity as pur
from . import randomize as rnd
from . import statespace as ss
from .errors import Check, RangeError


def markov_tail(report: rnd.McReport, x: float) -> Check:
    """The Markov inequality P{P(omega_A) >= 1/x} <= x E P(omega_A) on a report's histogram.

    The value is the empirical tail, measured from the first histogram edge
    at or above 1/x (which understates the true tail when 1/x falls inside a
    bin, keeping the check conservative).  The bound is x * mean plus three
    binomial standard deviations of the tail.
    """
    if x <= 1.0:
        raise RangeError(f"the tail parameter must exceed 1, got {x}")
    if report.histogram_counts is None:
        raise RangeError("the report carries no histogram")
    lo = 1.0 / x - 1e-12
    tail = int(sum(c for e, c in zip(report.histogram_edges, report.histogram_counts) if e >= lo))
    emp = tail / report.n_samples
    sigma = math.sqrt(max(emp * (1.0 - emp), 0.0) / report.n_samples)
    return Check(f"markov-x-{x:g}", emp, x * report.mean + 3 * sigma)


def _pauli_identities(seed: int, samples: int) -> list[Check]:
    checks = []
    for name, space in (("qubit", ss.QUBIT), ("classical-4", ss.build_classical(4)),
                        ("square", ss.SQUARE), ("pentagon", ss.PENTAGON)):
        dev, cdev = pur.pauli_identity_deviations(space, ss.with_midpoints(space.pures))
        checks.append(Check(f"complete-set-{name}", float(dev), 0.0))
        checks.append(Check(f"collision-{name}", float(cdev), 0.0))
    x, omega = pur.complete_pauli_set(ss.QUBIT)[0], pur.OFF_AXIS_QUBIT
    # X(T omega)^2 = b^t T^t c c^t T b for b = omega - mixed and c = G x, so its mean over
    # the Cliffords is b^t Pi(c c^t) b, the projection over H and S.
    c, b = ss.covector(ss.QUBIT, x), ss.bloch(ss.QUBIT, omega)
    form = [((k, l), ck * cl) for k, ck in enumerate(c) for l, cl in enumerate(c)]
    pi = grouprep.twirl(form, grouprep.clifford_generators(1), 2)
    avg = sum(w * b[k] * b[l] for (k, l), w in pi)
    expected = pur.purity(ss.QUBIT, omega) * ss.rational(1, 3)
    checks.append(Check("haar-average-qubit", float(abs(avg - expected)), 0.0))
    return checks


def _gram_invariance(seed: int, samples: int) -> list[Check]:
    checks = []
    for space in (ss.QUBIT, ss.QUTRIT, ss.build_classical(3), ss.build_classical(5), ss.SQUARE,
                  ss.PENTAGON, ss.REAL_QUBIT):
        r, generators = grouprep.group_generators(space)
        dev = grouprep.invariance_deviation(space.gram, generators, r)
        checks.append(Check(f"gram-invariance-{space.kind}-{space.level}", float(dev), 0.0))
        # Only the unit direction and the Gram's Bloch form are invariant.
        forms = grouprep.invariant_form_count(generators, r)
        checks.append(Check(f"gram-uniqueness-{space.kind}-{space.level}",
                            float(abs(forms - 2)), 0.0))
    return checks


def _classical_subsystem(seed: int, samples: int) -> list[Check]:
    checks = []
    for name, space in (("classical-2", ss.build_classical(2)),
                        ("classical-4", ss.build_classical(4)),
                        ("classical-8", ss.build_classical(8)),
                        ("qubit", ss.QUBIT),
                        ("square-gbit", ss.SQUARE)):
        dev = max(comp_mod.centered_deviations(space, comp_mod.capacity_witness(space)))
        checks.append(Check(f"centered-{name}", float(dev), 0.0))
    center, _ = comp_mod.centered_deviations(ss.PENTAGON, comp_mod.capacity_witness(ss.PENTAGON))
    checks.append(Check("pentagon-not-centered", float(center == 0), 0.0))
    return checks


def _markov_tail(seed: int, samples: int) -> list[Check]:
    report = rnd.estimate_expected_local_purity(formulas.QUANTUM, 2, 8, 1.0, samples, seed,
                                                histogram=True)
    return [markov_tail(report, x) for x in (2.0, 5.0, 10.0)]


def _boxworld(seed: int, samples: int) -> list[Check]:
    prod_p, pr_p = bw.vertex_purities()
    obstruction = bw.boxworld_normalization_obstruction()
    # The unit direction and the free weights a and b of the two blocks.
    forms = grouprep.invariant_form_count(bw.GENERATORS, 2)
    dev = grouprep.invariance_deviation(bw.GRAM, bw.GENERATORS, 2)
    return [
        Check("vertex-count", float(abs(len(bw.vertices()) - 24)), 0.0),
        Check("product-purity-one", float(max(abs(p - 1) for p in prod_p)), 0.0),
        Check("pr-purity-one-third", float(max(abs(3 * p - 1) for p in pr_p) / 3), 0.0),
        Check("obstruction-a", float(abs(obstruction.solution_a - 3)), 0.0),
        Check("obstruction-b", float(abs(obstruction.solution_b)), 0.0),
        Check("degenerate-zero-purity", float(abs(obstruction.zero_purity_value)), 0.0),
        Check("group-invariance", float(dev), 0.0),
        Check("invariant-forms", float(abs(forms - 3)), 0.0),
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
    """The checks of suite ``name``; fewer than 2 samples and a negative seed are
    refused in that order, as an estimate refuses them, for every suite."""
    if samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {samples}")
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    return SUITES[name](seed, samples)

