"""Locally tomographic tensor composites and classical-subsystem machinery.

Only quantum (x) quantum and classical (x) classical composites are
first-class: those are the transitive, locally tomographic cases where the
joint state space is again a built-in.  The joint coordinates use the tensor
product of the local bases, so the coordinate vector of a product state is
the Kronecker product of the local coordinate vectors, and marginalization is
contraction with the other party's order unit (partial trace for quantum,
row sums for classical).

Nothing here grows faster than the joint dimension K = K_A K_B.  A quantum
joint keeps the levels (n_A, n_B) of its Kronecker factors, not a basis,
and its analytic Gram stores no K x K matrix, so the joint purity constant
P(phi_A (x) mu_B) costs O(K).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import statespace as ss
from .errors import (InconsistencyError, UnsupportedCompositeError, UnsupportedSpaceError,
                     check_memory)
from .grouprep import GramMatrix
from .statespace import SpaceDescriptor


class CompositeDescriptor(NamedTuple):
    """A bipartite composite with K_AB = K_A * K_B.

    ``joint`` is a full SpaceDescriptor whose coordinate basis is the tensor
    product of the local bases; the flat index of the local pair (i, j) is
    ``i * K_B + j``.  A quantum joint's factor levels are those of A
    followed by those of B.
    """

    part_a: SpaceDescriptor
    part_b: SpaceDescriptor
    joint: SpaceDescriptor

    @property
    def kind(self) -> str:
        return self.part_a.kind


def compose(a: SpaceDescriptor, b: SpaceDescriptor) -> CompositeDescriptor:
    """Tensor composite of two quantum or two classical spaces.

    Mixed kinds, polygons and boxworld have no supported transitive
    tomographic composite here; bipartite boxworld is built by its own
    dedicated constructor and is not transitive.
    """
    if a.kind != b.kind or a.kind not in (ss.KIND_QUANTUM, ss.KIND_CLASSICAL):
        raise UnsupportedCompositeError(
            f"no transitive tomographic composite for kinds {a.kind!r} x {b.kind!r}"
        )
    check_memory(
        ss.DESCRIPTOR_BYTES_PER_COORD * a.K * b.K,
        f"the {a.K * b.K}-coordinate joint {a.kind} space",
    )
    if a.kind == ss.KIND_CLASSICAL:
        joint = ss.build_classical(a.N * b.N)
        return CompositeDescriptor(part_a=a, part_b=b, joint=joint)
    n = a.level * b.level
    joint = SpaceDescriptor(
        kind=ss.KIND_QUANTUM,
        K=a.K * b.K,
        N=n,
        order_unit=np.kron(a.order_unit, b.order_unit),
        max_mixed=np.kron(a.max_mixed, b.max_mixed),
        level=n,
        factor_levels=a.factor_levels + b.factor_levels,
    )
    return CompositeDescriptor(part_a=a, part_b=b, joint=joint)


def marginal_a(comp: CompositeDescriptor, omega: np.ndarray) -> np.ndarray:
    """Reduced state on A: contraction of the B slot with B's order unit."""
    c = np.asarray(omega, dtype=float).reshape(comp.part_a.K, comp.part_b.K)
    return c @ comp.part_b.order_unit


# -- classical subsystems and capacity witnesses ----------------------------------------


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
    verts = space.vertices
    n = space.level
    if n % 2 == 0:
        v0, v1 = verts[0], verts[n // 2]
        e0 = 0.5 * np.array([1.0, v0[1], v0[2]])
    else:
        # No centered pair exists for odd polygons; use the most-opposite
        # vertex and the affine functional separating the pair.
        j = (n + 1) // 2
        v0, v1 = verts[0], verts[j]
        g = (v0 - v1)[1:]
        denom = float(g @ (v0 - v1)[1:])
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
    (including the gbit square): an antipodal vertex pair, which is centered.
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
    if space.kind == ss.KIND_BOXWORLD_LOCAL:
        states = np.stack([space.vertices[0], space.vertices[3]])  # omega++ and omega--
        effects = np.stack([space.effects[0], space.effects[1]])  # Y and u - Y
        centered = bool(np.allclose(states.mean(axis=0), space.max_mixed, atol=1e-12))
        return ClassicalSubsystemWitness(states=states, effects=effects, centered=centered)
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


# -- the composite purity constant P(phi_A (x) mu_B) --------------------------------------


def _reference_pure(space: SpaceDescriptor) -> np.ndarray:
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        m = np.zeros((space.level, space.level))
        m[0, 0] = 1.0
        return space.to_coords(m)
    if space.kind == ss.KIND_CLASSICAL:
        e = np.zeros(space.K)
        e[0] = 1.0
        return e
    if space.vertices is not None:
        return np.array(space.vertices[0])
    raise UnsupportedSpaceError(f"no reference pure state for kind {space.kind!r}")


class PurityPhiMu(NamedTuple):
    """The quantity P(phi_A (x) mu_B), numerically and in closed form."""

    numeric: float
    closed_form: float


def purity_pure_times_maxmixed(
    comp: CompositeDescriptor, gram_ab: GramMatrix, tol: float = 1e-6
) -> PurityPhiMu:
    """Purity of (pure on A) (x) (maximally mixed on B) under the joint Gram.

    For composites carrying a composite classical subsystem this equals
    (N_A - 1)/(N_A N_B - 1); a mismatch beyond ``tol`` raises.
    """
    phi = _reference_pure(comp.part_a)
    omega = np.kron(phi, comp.part_b.max_mixed)
    numeric = gram_ab.norm_sq(omega - comp.joint.max_mixed)
    closed = (comp.part_a.N - 1.0) / (comp.part_a.N * comp.part_b.N - 1.0)
    if abs(numeric - closed) > tol:
        raise InconsistencyError(
            f"P(phi (x) mu) = {numeric!r} disagrees with closed form {closed!r}"
        )
    return PurityPhiMu(numeric=numeric, closed_form=closed)
