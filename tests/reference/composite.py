"""Classical subsystems: capacity witnesses and the centered-subsystem identities.

A capacity witness is a maximal set of perfectly distinguishable pure states
with the effects that tell them apart (``capacity_witness``).
``verify_centered_dynamical`` measures how far a witness is from the
identities of a centered classical subsystem, (1/n) sum omega_i = mu and
<omega_i, omega_j> = -1/(N-1) for i != j under the invariant Gram, and
``checks`` judges them for ``verify classical-subsystem``.

The composites that this subsystem structure feeds, and the constant
P(phi_A (x) mu_B) = (N_A-1)/(N_A N_B-1) it gives them, are level-count
closed forms in ``formulas``; the tests build the tensor composites they are
checked against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from gptpurity.errors import UnsupportedSpaceError

from . import InconsistencyError, statespace as ss
from .grouprep import GramMatrix
from .statespace import SpaceDescriptor


class ClassicalSubsystemWitness(NamedTuple):
    """Perfectly distinguishable pure states with their distinguishing effects.

    ``states`` is (n, K); ``effects`` is (n, K) with effects[i] @ states[j]
    equal to the Kronecker delta and the effects summing to the order unit.
    ``centered`` flags whether the states average to the maximally mixed
    state.
    """

    states: np.ndarray
    effects: np.ndarray
    centered: bool


def _polygon_witness(space: SpaceDescriptor) -> ClassicalSubsystemWitness:
    """Vertex 0 and vertex (n+1)//2, its antipode for even n and the most
    opposite vertex for odd n, told apart by the affine functional e0 that is 1
    on the first and 0 on the second: e0 = (-g.b1, g)/(g.g) with g = b0 - b1
    for their Bloch vectors b."""
    verts = space.vertices
    n = space.level
    v0, v1 = verts[0], verts[(n + 1) // 2]
    g = (v0 - v1)[1:]
    denom = float(g @ g)
    e0 = np.concatenate([[-float(g @ v1[1:]) / denom], g / denom])
    e1 = space.order_unit - e0
    states = np.stack([v0, v1])
    effects = np.stack([e0, e1])
    vals = effects @ states.T
    if not np.allclose(vals, np.eye(2), atol=1e-12):
        raise InconsistencyError("polygon witness construction failed")
    all_vals = effects @ verts.T
    if np.min(all_vals) < -1e-12 or np.max(all_vals) > 1 + 1e-12:
        raise InconsistencyError("polygon witness effects are not valid effects")
    centered = bool(np.allclose(states.mean(axis=0), space.max_mixed, atol=1e-12))
    return ClassicalSubsystemWitness(states=states, effects=effects, centered=centered)


def capacity_witness(space: SpaceDescriptor) -> ClassicalSubsystemWitness:
    """A maximal classical subsystem with its distinguishing measurement.

    Quantum: the basis projectors.  Classical: the outcomes.  Even polygons
    (the gbit square among them): an antipodal vertex pair, which is centered.
    Odd polygons: a two-element witness exists but is not centered.
    """
    if space.kind == ss.KIND_QUANTUM or space.kind == ss.KIND_REAL_QUANTUM:
        n = space.level
        projectors = np.zeros((n, n, n))
        projectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0
        states = space.to_coords(projectors)
        return ClassicalSubsystemWitness(states=states, effects=states.copy(), centered=True)
    if space.kind == ss.KIND_CLASSICAL:
        eye = np.eye(space.K)
        return ClassicalSubsystemWitness(states=eye, effects=eye.copy(), centered=True)
    if space.kind == ss.KIND_POLYGON:
        return _polygon_witness(space)
    raise UnsupportedSpaceError(f"no capacity witness for kind {space.kind!r}")


class CenteredReport(NamedTuple):
    """Deviations of a witness from the centered-dynamical Gram identity."""

    n: int
    center_deviation: float
    gram_offdiag_deviation: float
    expected_offdiag: float


def verify_centered_dynamical(
    space: SpaceDescriptor, gram: GramMatrix, witness: ClassicalSubsystemWitness
) -> CenteredReport:
    """Deviations from (1/n) sum omega_i = mu and <omega_i, omega_j> = -1/(N-1) (i != j)."""
    n = len(witness.states)
    center_dev = float(np.max(np.abs(witness.states.mean(axis=0) - space.max_mixed)))
    blochs = witness.states - space.max_mixed
    g = gram.apply(blochs) @ blochs.T
    expected = -1.0 / (n - 1)
    off = g[~np.eye(n, dtype=bool)]
    off_dev = float(np.max(np.abs(off - expected))) if off.size else 0.0
    return CenteredReport(
        n=n,
        center_deviation=center_dev,
        gram_offdiag_deviation=off_dev,
        expected_offdiag=expected,
    )
