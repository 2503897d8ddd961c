"""Concrete convex state spaces over a shared real-coordinate descriptor.

Every space is described by the same data: an ambient real dimension ``K``,
an order unit (the covector giving total probability), the maximally mixed
state, and a kind-specific cone test and pure-state sampler.  Matrix-valued
theories (quantum over C, quantum over R) are vectorized in a fixed
orthonormal Hermitian basis whose first element is ``identity/sqrt(d)``, so
that states of all kinds are plain real vectors and the tensor product of
coordinate vectors is the coordinate vector of the tensor product.  A
descriptor keeps that basis as Kronecker factors: one for a built-in space,
one per party for a composite, so joint coordinates never need the stacked
joint basis.

Arrays that grow with a joint space are checked against ``MEMORY_CAP_BYTES``
by ``check_memory`` before they are allocated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConeError,
    InternalError,
    InvalidDimensionError,
    NormalizationError,
    RangeError,
    UnsupportedSpaceError,
)

CONE_TOL = 1e-9
NORM_TOL = 1e-9
# Largest single array a request may allocate when it grows with the joint
# space (a coordinate block, a dense Gram, a stacked basis, a descriptor).
MEMORY_CAP_BYTES = 1 << 30
# A descriptor holds two float64 vectors and one label string per
# coordinate; CPython 3.11 measures about 85 bytes per coordinate in all.
DESCRIPTOR_BYTES_PER_COORD = 96

KIND_QUANTUM = "quantum"
KIND_CLASSICAL = "classical"
KIND_POLYGON = "polygon"
KIND_REAL_QUANTUM = "real-quantum"
KIND_BOXWORLD_LOCAL = "boxworld-local"
KIND_BOXWORLD_BIPARTITE = "boxworld-bipartite"

_MATRIX_KINDS = (KIND_QUANTUM, KIND_REAL_QUANTUM)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def project_off(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x - u (u.x)/(u.u) along the last axis of ``x``: the Euclidean projection onto ``ker u``."""
    out = np.multiply.outer(x @ u / float(u @ u), u)
    np.subtract(x, out, out=out)
    return out


def check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, ``what`` needing more than ``MEMORY_CAP_BYTES``."""
    if nbytes > MEMORY_CAP_BYTES:
        raise RangeError(
            f"{what} would need {nbytes} bytes, over the {MEMORY_CAP_BYTES}-byte memory cap"
        )


@dataclass(frozen=True)
class SpaceDescriptor:
    """A finite-dimensional state space in ambient coordinates.

    Attributes
    ----------
    kind:
        One of ``quantum``, ``classical``, ``polygon``, ``real-quantum``,
        ``boxworld-local``, ``boxworld-bipartite``.
    K:
        Ambient real dimension (parameters of an unnormalized state).
    N:
        Capacity: maximal number of perfectly distinguishable states.
    order_unit:
        Length-``K`` covector ``u``; normalized states satisfy ``u @ x == 1``.
    max_mixed:
        The unique state fixed by every reversible transformation.
    basis_labels:
        One label per ambient coordinate.
    level:
        Kind parameter: Hilbert-space dimension, outcome count, or vertex
        count.  ``None`` only for the bipartite boxworld space.
    basis_factors:
        Matrix-valued kinds only: the orthonormal Hermitian basis as
        Kronecker factors, each a ``(K_i, d_i, d_i)`` stack.  Basis element
        ``k`` is the Kronecker product of one element per factor, ``k`` being
        the row-major flat index of their indices.  A built-in space has one
        factor; a composite has one per party.
    vertices:
        ``(n_pure, K)`` array of all pure states for polytopal kinds.
    effects:
        ``(n_eff, K)`` extremal effect covectors used by polytopal cone tests.
    """

    kind: str
    K: int
    N: int
    order_unit: np.ndarray
    max_mixed: np.ndarray
    basis_labels: tuple[str, ...]
    level: int | None = None
    basis_factors: tuple[np.ndarray, ...] | None = None
    vertices: np.ndarray | None = None
    effects: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("order_unit", "max_mixed", "vertices", "effects"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _frozen(np.asarray(a)))
        if self.basis_factors is not None:
            object.__setattr__(
                self, "basis_factors", tuple(_frozen(np.asarray(b)) for b in self.basis_factors)
            )

    # -- generic linear structure -------------------------------------------------

    def unit(self, x: np.ndarray) -> float:
        """Evaluate the order unit on ``x``."""
        return float(self.order_unit @ np.asarray(x, dtype=float))

    def bloch_projector(self) -> np.ndarray:
        """Euclidean-orthogonal projector onto the Bloch subspace ``ker u``, as a K x K matrix."""
        check_memory(8 * self.K * self.K, f"a {self.K} x {self.K} Bloch projector")
        u = self.order_unit
        return np.eye(self.K) - np.outer(u, u) / float(u @ u)

    def project_bloch(self, x: np.ndarray) -> np.ndarray:
        """``bloch_projector() @ x`` without the K x K matrix: x - u (u.x)/(u.u).

        ``x`` is a vector or a stack whose last axis holds the coordinates.
        """
        return project_off(np.asarray(x, dtype=float), self.order_unit)

    def bloch(self, omega: np.ndarray, *, norm_tol: float = NORM_TOL) -> np.ndarray:
        """Bloch vector ``omega - max_mixed`` of a normalized state, or of each row of a (m, K) stack."""
        omega = np.asarray(omega, dtype=float)
        units = np.atleast_1d(omega @ self.order_unit)
        off = np.abs(units - 1.0) > norm_tol
        if off.any():
            raise NormalizationError(
                f"state has order-unit value {float(units[off][0])!r}, expected 1"
            )
        return omega - self.max_mixed

    # -- matrix representation (quantum kinds) ------------------------------------

    def _factors(self) -> tuple[np.ndarray, ...]:
        if self.basis_factors is None:
            raise UnsupportedSpaceError(f"space kind {self.kind!r} has no matrix form")
        return self.basis_factors

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Reassemble the (Hermitian or symmetric) matrix from coordinates.

        Contracts one coordinate index with one basis factor at a time; the
        result has axes (i_1, j_1, ..., i_m, j_m) and is reordered to rows
        (i_1..i_m) and columns (j_1..j_m).
        """
        factors = self._factors()
        t = np.asarray(coords).reshape([b.shape[0] for b in factors])
        for b in factors:
            t = np.tensordot(t, b, axes=([0], [0]))
        m = len(factors)
        t = t.transpose([*range(0, 2 * m, 2), *range(1, 2 * m, 2)])
        return t.reshape(self.level, self.level)

    def to_coords(self, matrix: np.ndarray) -> np.ndarray:
        """Coordinates ``c_k = Tr(B_k @ M)`` of a Hermitian matrix ``M``, or of each in a stack.

        ``M`` is viewed as a tensor with row axes (r_1..r_m) and column axes
        (c_1..c_m), one pair per basis factor, and contracted with one factor
        at a time.  Leading axes of ``matrix`` are batch axes.
        """
        factors = self._factors()
        matrix = np.asarray(matrix)
        lead = matrix.shape[:-2]
        dims = [b.shape[1] for b in factors]
        t = matrix.reshape([*lead, *dims, *dims])
        nb = len(lead)
        # Factor f pairs its column index with r_f and its row index with
        # c_f; both are then the first of the remaining pairs.
        for rem, b in zip(range(len(factors), 0, -1), factors):
            t = np.tensordot(t, b, axes=([nb, nb + rem], [2, 1]))
        return np.real(t).reshape(*lead, self.K).astype(float)

    @cached_property
    def hermitian_basis(self) -> np.ndarray | None:
        """The ``(K, d, d)`` stacked basis, built from the factors on first access.

        ``None`` for kinds without a matrix form.  A composite's stack grows
        like d^4 and is refused beyond ``MEMORY_CAP_BYTES``.
        """
        if self.basis_factors is None:
            return None
        if len(self.basis_factors) == 1:
            return self.basis_factors[0]
        itemsize = np.result_type(*self.basis_factors).itemsize
        check_memory(
            itemsize * self.K * self.level**2,
            f"the stacked {self.K}-element basis of {self.level} x {self.level} matrices",
        )
        out = self.basis_factors[0]
        for b in self.basis_factors[1:]:
            k, d = out.shape[0] * b.shape[0], out.shape[1] * b.shape[1]
            out = np.einsum("aij,bkl->abikjl", out, b).reshape(k, d, d)
        return _frozen(out)

    # -- cone test ----------------------------------------------------------------

    def cone_contains(self, x: np.ndarray, tol: float = CONE_TOL) -> bool:
        """Membership test for the cone of unnormalized states."""
        x = np.asarray(x, dtype=float)
        if self.kind == KIND_CLASSICAL:
            return bool(np.all(x >= -tol))
        if self.kind in _MATRIX_KINDS:
            eigs = np.linalg.eigvalsh(self.to_matrix(x))
            return bool(np.all(eigs >= -tol))
        if self.effects is not None:
            return bool(np.all(self.effects @ x >= -tol))
        raise UnsupportedSpaceError(f"no cone test for kind {self.kind!r}")

    # -- pure states ---------------------------------------------------------------

    def sample_pure(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random pure state (group-orbit uniform)."""
        if self.kind == KIND_QUANTUM:
            psi = haar_ket(self.level, rng)
            return self.to_coords(np.outer(psi, psi.conj()))
        if self.kind == KIND_REAL_QUANTUM:
            psi = rng.normal(size=self.level)
            psi /= np.linalg.norm(psi)
            return self.to_coords(np.outer(psi, psi))
        if self.kind == KIND_CLASSICAL:
            e = np.zeros(self.K)
            e[rng.integers(self.K)] = 1.0
            return e
        if self.vertices is not None:
            return np.array(self.vertices[rng.integers(len(self.vertices))])
        raise UnsupportedSpaceError(f"no pure-state sampler for kind {self.kind!r}")

    # -- serialization ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "K": self.K,
            "N": self.N,
            "order_unit": [float(v) for v in self.order_unit],
            "max_mixed": [float(v) for v in self.max_mixed],
            "labels": list(self.basis_labels),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def validate_state(
    space: SpaceDescriptor,
    omega: np.ndarray,
    *,
    cone_tol: float = CONE_TOL,
    norm_tol: float = NORM_TOL,
) -> None:
    """Raise unless ``omega`` is a normalized state of ``space``."""
    omega = np.asarray(omega, dtype=float)
    if abs(space.unit(omega) - 1.0) > norm_tol:
        raise NormalizationError(f"order-unit value {space.unit(omega)!r} != 1")
    if not space.cone_contains(omega, tol=cone_tol):
        raise ConeError("state fails the cone test")


def random_mixtures(space: SpaceDescriptor, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random convex mixtures of K+1 sampled pure states, shape (count, K)."""
    pures = np.stack([space.sample_pure(rng) for _ in range(space.K + 1)])
    weights = rng.dirichlet(np.ones(len(pures)), size=count)
    return weights @ pures


def haar_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector in C^d (normalized complex Gaussian)."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


# -- orthonormal Hermitian bases -----------------------------------------------------


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices, identity/sqrt(d) first.

    Order: identity, then the symmetric off-diagonal pairs, the antisymmetric
    (imaginary) pairs, and finally the diagonal traceless elements.  All
    elements after the first are traceless, so the first coordinate alone
    carries normalization.
    """
    check_memory(16 * d**4, f"the {d * d}-element Hermitian basis of {d} x {d} matrices")
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / math.sqrt(2)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2)
            m[k, j] = 1j / math.sqrt(2)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m / math.sqrt(l * (l + 1)))
    return np.stack(mats)


def _hermitian_labels(d: int) -> tuple[str, ...]:
    labels = ["u"]
    labels += [f"x{j}{k}" for j in range(d) for k in range(j + 1, d)]
    labels += [f"y{j}{k}" for j in range(d) for k in range(j + 1, d)]
    labels += [f"z{l}" for l in range(1, d)]
    return tuple(labels)


@lru_cache(maxsize=None)
def symmetric_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d real symmetric matrices, identity/sqrt(d) first."""
    count = d * (d + 1) // 2
    check_memory(8 * count * d * d, f"the {count}-element symmetric basis of {d} x {d} matrices")
    mats = [np.eye(d) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d))
            m[j, k] = m[k, j] = 1 / math.sqrt(2)
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d))
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m / math.sqrt(l * (l + 1)))
    return np.stack(mats)


def _symmetric_labels(d: int) -> tuple[str, ...]:
    labels = ["u"]
    labels += [f"x{j}{k}" for j in range(d) for k in range(j + 1, d)]
    labels += [f"z{l}" for l in range(1, d)]
    return tuple(labels)


# -- builders --------------------------------------------------------------------------


def build_quantum(n: int) -> SpaceDescriptor:
    """Quantum n-level system, vectorized in the Hermitian basis.

    K = n^2, N = n.  The cone test checks positive semidefiniteness of the
    reassembled matrix; the maximally mixed state is identity/n.
    """
    if n < 2:
        raise InvalidDimensionError(f"quantum level count must be >= 2, got {n}")
    basis = hermitian_basis(n)
    order_unit = np.zeros(n * n)
    order_unit[0] = math.sqrt(n)
    max_mixed = np.zeros(n * n)
    max_mixed[0] = 1 / math.sqrt(n)
    return SpaceDescriptor(
        kind=KIND_QUANTUM,
        K=n * n,
        N=n,
        order_unit=order_unit,
        max_mixed=max_mixed,
        basis_labels=_hermitian_labels(n),
        level=n,
        basis_factors=(basis,),
    )


def build_classical(n: int) -> SpaceDescriptor:
    """Classical n-outcome system: probability vectors, K = N = n."""
    if n < 2:
        raise InvalidDimensionError(f"classical outcome count must be >= 2, got {n}")
    check_memory(DESCRIPTOR_BYTES_PER_COORD * n, f"the {n}-outcome classical space")
    return SpaceDescriptor(
        kind=KIND_CLASSICAL,
        K=n,
        N=n,
        order_unit=np.ones(n),
        max_mixed=np.full(n, 1.0 / n),
        basis_labels=tuple(f"p{i}" for i in range(n)),
        level=n,
    )


def _polygon_vertices(n: int, phase: float = 0.0) -> np.ndarray:
    ang = 2 * np.pi * np.arange(n) / n + phase
    return np.column_stack([np.ones(n), np.cos(ang), np.sin(ang)])


def _polygon_effects(n: int, phase: float = 0.0) -> np.ndarray:
    """Edge covectors: x*cos(phi_k) + y*sin(phi_k) <= u*cos(pi/n)."""
    phi = (2 * np.arange(n) + 1) * np.pi / n + phase
    return np.column_stack([np.full(n, math.cos(math.pi / n)), -np.cos(phi), -np.sin(phi)])


def build_polygon(n: int) -> SpaceDescriptor:
    """Regular n-gon inscribed in the unit circle of the Bloch plane.

    K = 3.  Pure states sit at angles 2*pi*k/n starting at angle 0, with
    normalization coordinate 1; the reversible group is dihedral D_n.  The
    capacity is 2 for every n >= 4; the triangle n = 3 is the classical
    3-outcome simplex in disguise and has N = 3.
    """
    if n < 3:
        raise InvalidDimensionError(f"polygon vertex count must be >= 3, got {n}")
    order_unit = np.array([1.0, 0.0, 0.0])
    return SpaceDescriptor(
        kind=KIND_POLYGON,
        K=3,
        N=3 if n == 3 else 2,
        order_unit=order_unit,
        max_mixed=order_unit.copy(),
        basis_labels=("u", "x", "y"),
        level=n,
        vertices=_polygon_vertices(n),
        effects=_polygon_effects(n),
    )


def build_real_quantum(m: int) -> SpaceDescriptor:
    """Quantum theory over the reals: real symmetric density matrices.

    K = m(m+1)/2; the reversible group is conjugation by orthogonal matrices.
    """
    if m < 2:
        raise InvalidDimensionError(f"real-quantum level count must be >= 2, got {m}")
    k = m * (m + 1) // 2
    basis = symmetric_basis(m)
    order_unit = np.zeros(k)
    order_unit[0] = math.sqrt(m)
    max_mixed = np.zeros(k)
    max_mixed[0] = 1 / math.sqrt(m)
    return SpaceDescriptor(
        kind=KIND_REAL_QUANTUM,
        K=k,
        N=m,
        order_unit=order_unit,
        max_mixed=max_mixed,
        basis_labels=_symmetric_labels(m),
        level=m,
        basis_factors=(basis,),
    )


# -- boxworld ---------------------------------------------------------------------------

# Local gbit, in the representation whose pure states are (1, +-1/sqrt2, +-1/sqrt2).
_GBIT_VERTICES = np.array(
    [[1.0, r / math.sqrt(2), s / math.sqrt(2)] for r in (1, -1) for s in (1, -1)]
)
# Extremal effects Y, u - Y, Z, u - Z.
_GBIT_EFFECTS = np.array(
    [
        [0.5, 1 / math.sqrt(2), 0.0],
        [0.5, -1 / math.sqrt(2), 0.0],
        [0.5, 0.0, 1 / math.sqrt(2)],
        [0.5, 0.0, -1 / math.sqrt(2)],
    ]
)


def build_boxworld_local() -> SpaceDescriptor:
    """One gbit: the square state space of a single boxworld party."""
    order_unit = np.array([1.0, 0.0, 0.0])
    return SpaceDescriptor(
        kind=KIND_BOXWORLD_LOCAL,
        K=3,
        N=2,
        order_unit=order_unit,
        max_mixed=order_unit.copy(),
        basis_labels=("u", "y", "z"),
        level=4,
        vertices=_GBIT_VERTICES,
        effects=_GBIT_EFFECTS,
    )


def boxworld_pr_state() -> np.ndarray:
    """The canonical PR-box state, flattened row-major from its 3x3 matrix form."""
    w = np.zeros((3, 3))
    w[0, 0] = 1.0
    w[1, 1] = w[1, 2] = w[2, 1] = 0.5
    w[2, 2] = -0.5
    return w.ravel()


def gbit_symmetries() -> np.ndarray:
    """The eight 2x2 orthogonal matrices of the square's dihedral group D4.

    All entries are exactly 0 or +-1 (rotations by multiples of pi/2 and
    reflections through the axes and diagonals), so group orbits of states
    with exact rational coordinates stay exact.
    """
    rotations = [
        [[1, 0], [0, 1]],
        [[0, -1], [1, 0]],
        [[-1, 0], [0, -1]],
        [[0, 1], [-1, 0]],
    ]
    reflections = [
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[-1, 0], [0, 1]],
        [[0, -1], [-1, 0]],
    ]
    return np.array(rotations + reflections, dtype=float)


def _gbit_local_action(g: np.ndarray) -> np.ndarray:
    """Lift a 2x2 Bloch-plane symmetry to the 3-dim ambient coordinates."""
    t = np.eye(3)
    t[1:, 1:] = g
    return t


def _pr_orbit() -> np.ndarray:
    """Orbit of the PR state under local D4 x D4; eight distinct states."""
    w = boxworld_pr_state().reshape(3, 3)
    seen: dict[bytes, np.ndarray] = {}
    for ga in gbit_symmetries():
        for gb in gbit_symmetries():
            v = _gbit_local_action(ga) @ w @ _gbit_local_action(gb).T
            key = np.round(v, 12).tobytes()
            if key not in seen:
                seen[key] = v.ravel()
    return np.stack(list(seen.values()))


@lru_cache(maxsize=1)
def build_boxworld_bipartite() -> SpaceDescriptor:
    """Two gbits under the maximal (no-signalling) tensor product.

    K = 9.  Coordinates are the row-major entries of the 3x3 coefficient
    matrix over the local bases, so coordinate 0 is the normalization.  The
    24 pure states are cached on the descriptor: the 16 products first, then
    the 8 PR-type states (the local-D4 orbit of the canonical PR state).
    The cone test checks nonnegativity of all products of extremal local
    effects.
    """
    products = np.stack(
        [np.kron(a, b) for a in _GBIT_VERTICES for b in _GBIT_VERTICES]
    )
    pr = _pr_orbit()
    if len(pr) != 8:
        raise InternalError(f"PR orbit enumeration produced {len(pr)} states, expected 8")
    vertices = np.vstack([products, pr])
    effect_products = np.stack(
        [np.kron(e, f) for e in _GBIT_EFFECTS for f in _GBIT_EFFECTS]
    )
    order_unit = np.zeros(9)
    order_unit[0] = 1.0
    max_mixed = order_unit.copy()
    labels = tuple(f"{a}{b}" for a in ("u", "y", "z") for b in ("u", "y", "z"))
    return SpaceDescriptor(
        kind=KIND_BOXWORLD_BIPARTITE,
        K=9,
        N=4,
        order_unit=order_unit,
        max_mixed=max_mixed,
        basis_labels=labels,
        level=None,
        vertices=vertices,
        effects=effect_products,
    )


BOXWORLD_PRODUCT_COUNT = 16
BOXWORLD_PR_COUNT = 8
