"""Test references that no command runs: random mixed states, tensor composites and
their P(phi_A (x) mu_B) constant, and the dense isometry route of a quantum face.

A quantum composite is a dense reference: its basis is the Kronecker product of
the parts' ``hermitian_basis`` stacks, and its coordinates are einsums over it."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gptpurity import statespace as ss
from gptpurity.errors import (InconsistencyError, InvalidProbeError, UnsupportedSpaceError,
                              check_memory)
from gptpurity.formulas import _check_purity_on_face

import haar


def random_mixtures(space, count, rng):
    """Random convex mixtures of K+1 sampled pure states, shape (count, K)."""
    pures = haar.sample_pures(space, rng, space.K + 1)
    weights = rng.dirichlet(np.ones(len(pures)), size=count)
    return np.einsum("mi,ik->mk", weights, pures)


# -- tensor composites -------------------------------------------------------------------


class CompositeDescriptor(NamedTuple):
    """A bipartite composite with K_AB = K_A * K_B.

    ``joint`` is a full SpaceDescriptor whose coordinate basis is the tensor
    product of the local bases; the flat index of the local pair (i, j) is
    ``i * K_B + j``.
    """

    part_a: ss.SpaceDescriptor
    part_b: ss.SpaceDescriptor
    joint: ss.SpaceDescriptor


@dataclass(frozen=True, eq=False)
class DenseJoint(ss.SpaceDescriptor):
    """A quantum joint that holds its (K, n, n) Kronecker-product basis."""

    basis: np.ndarray | None = None

    @property
    def hermitian_basis(self):
        return self.basis

    def to_coords(self, matrix):
        return np.einsum("kij,...ji->...k", self.basis, np.asarray(matrix)).real

    def to_matrix(self, coords):
        return np.einsum("...k,kij->...ij", np.asarray(coords), self.basis)


def compose(a, b):
    """Tensor composite of two quantum or two classical spaces.

    Mixed kinds, polygons and boxworld have no supported transitive
    tomographic composite.  A quantum joint holds its dense basis, of
    K_A K_B n^2 complex entries for n = n_A n_B levels.
    """
    if a.kind != b.kind or a.kind not in (ss.KIND_QUANTUM, ss.KIND_CLASSICAL):
        raise UnsupportedSpaceError(
            f"no transitive tomographic composite for kinds {a.kind!r} x {b.kind!r}"
        )
    if a.kind == ss.KIND_CLASSICAL:
        return CompositeDescriptor(part_a=a, part_b=b, joint=ss.build_classical(a.N * b.N))
    n, k = a.level * b.level, a.K * b.K
    check_memory(16 * k * n * n, f"the dense {k}-element basis of the joint quantum space")
    basis = np.einsum("aij,bkl->abikjl", a.hermitian_basis, b.hermitian_basis)
    joint = DenseJoint(
        kind=ss.KIND_QUANTUM,
        K=k,
        N=n,
        order_unit=np.kron(a.order_unit, b.order_unit),
        max_mixed=np.kron(a.max_mixed, b.max_mixed),
        level=n,
        basis=ss._frozen(basis.reshape(k, n, n)),
    )
    return CompositeDescriptor(part_a=a, part_b=b, joint=joint)


def marginal_a(comp, omega):
    """Reduced state on A: contraction of the B slot with B's order unit."""
    c = np.asarray(omega, dtype=float).reshape(comp.part_a.K, comp.part_b.K)
    return c @ comp.part_b.order_unit


def reference_pure(space):
    """A fixed pure state of ``space``: |0><0|, the first outcome or the first vertex."""
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


def purity_pure_times_maxmixed(comp, gram_ab, tol=1e-6):
    """Purity of (pure on A) (x) (maximally mixed on B) under the joint Gram.

    For composites carrying a composite classical subsystem this equals
    (N_A - 1)/(N_A N_B - 1), the lemma behind ``formulas.predict_general``;
    a mismatch beyond ``tol`` raises.  ``gram_ab`` is a ``GramMatrix`` or a
    dense K x K array such as ``haar.invariant_gram``'s.
    """
    b = np.kron(reference_pure(comp.part_a), comp.part_b.max_mixed) - comp.joint.max_mixed
    numeric = float(b @ gram_ab @ b) if isinstance(gram_ab, np.ndarray) else gram_ab.norm_sq(b)
    closed = (comp.part_a.N - 1.0) / (comp.part_a.N * comp.part_b.N - 1.0)
    if abs(numeric - closed) > tol:
        raise InconsistencyError(
            f"P(phi (x) mu) = {numeric!r} disagrees with closed form {closed!r}"
        )
    return PurityPhiMu(numeric=numeric, closed_form=closed)


# -- the dense isometry route of a quantum face --------------------------------------------


def isometry(face):
    """The n^2 x N_S orthonormal columns V spanning the face, counted before they are built.

    Column k, for the k-th pair i <= j (i < j when antisymmetric), is |ii>
    or (|ij> + sign |ji>)/sqrt 2.
    """
    n, n_s = face.n, face.n_sub
    check_memory(8 * n * n * n_s, f"the isometry of a {n_s}-dimensional subspace of C^{n * n}")
    i, j = np.triu_indices(n, 0 if face.sign == 1 else 1)
    k = np.arange(n_s)
    v = np.zeros((n, n, n_s))
    v[i, j, k] = np.where(i == j, 1.0, math.sqrt(0.5))
    v[j, i, k] = face.sign * v[i, j, k]
    return v.reshape(n * n, n_s)


def face_composite(face):
    """The composite descriptor of the face's two quantum parts."""
    return compose(ss.build_quantum(face.n), ss.build_quantum(face.n))


def mu_face(face):
    """The face-maximally-mixed state V V^dagger / N_S in joint coordinates."""
    v = isometry(face)
    return face_composite(face).joint.to_coords(v @ v.T / face.n_sub)


def face_bloch_projector(face, m):
    """Orthogonal projection of a traceless Hermitian matrix onto the face span.

    pi M pi - pi Tr(pi M pi) / Tr(pi) for pi = V V^dagger; idempotent and self-adjoint
    with respect to the invariant inner product on the joint Bloch space.
    """
    v = isometry(face)
    pi = v @ v.T
    pmp = pi @ np.asarray(m) @ pi
    return pmp - pi * (np.trace(pmp) / face.n_sub)


def default_probe(n):
    """(|1><1| - |2><2|) / sqrt(2) as a dense n x n matrix."""
    e = np.zeros((n, n))
    e[0, 0] = 1.0 / math.sqrt(2)
    e[1, 1] = -1.0 / math.sqrt(2)
    return e


def probe_entries(e_a):
    """The nonzero entries of a dense probe by (row, column): ``formulas.predict_qface``'s form."""
    e_a = np.asarray(e_a)
    return {(int(a), int(i)): e_a[a, i].item() for a, i in zip(*np.nonzero(e_a))}


def qface_by_isometry(face, e_a, tr_purity_global):
    """(value, ingredient) of the face prediction, with Tr[(pi (E_A (x) I) pi)^2] taken as
    |V^dagger (E_A (x) I) V|_F^2 by two dense products."""
    e_a = np.asarray(e_a)
    n = face.n
    if e_a.shape != (n, n) or not np.all(np.abs(e_a - e_a.conj().T) <= 1e-8):
        raise InvalidProbeError(f"probe must be a Hermitian {n} x {n} matrix")
    if not (abs(np.trace(e_a)) <= 1e-8 and abs(np.trace(e_a @ e_a) - 1.0) <= 1e-8):
        raise InvalidProbeError("probe must satisfy Tr E_A = 0 and Tr E_A^2 = 1")
    n_s = face.n_sub
    _check_purity_on_face(n_s, tr_purity_global)
    if n_s == 1:
        return 1.0 / n, 0.0
    v = isometry(face)
    check_memory(16 * n_s * (n * n + n_s), f"the probe's action on a {n_s}-dimensional face")
    probe = v.T @ (e_a @ v.reshape(n, -1)).reshape(v.shape)
    ingredient = float(np.vdot(probe, probe).real)
    value = 1.0 / n + (n**2 - 1) / (n_s**2 - 1) * ingredient * (tr_purity_global - 1.0 / n_s)
    return value, ingredient
