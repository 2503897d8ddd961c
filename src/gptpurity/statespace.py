"""Concrete convex state spaces over a shared real-coordinate descriptor.

Every space is described by the same data: an ambient real dimension ``K``,
an order unit (the covector giving total probability), the maximally mixed
state, and a kind-specific cone test and pure-state sampler.  Matrix-valued
theories (quantum over C, quantum over R) are vectorized in a fixed
orthonormal Hermitian basis whose first element is ``identity/sqrt(d)``, so
that states of all kinds are plain real vectors and the tensor product of
coordinate vectors is the coordinate vector of the tensor product.  It is
the generalized Gell-Mann basis (Bertlmann and Krammer, J. Phys. A 41,
235303, 2008), whose elements have at most two nonzero entries, so
coordinates are index arithmetic.  A descriptor stores no basis, only the
level of each Kronecker factor: one for a built-in space, one per party for
a composite.

Arrays that grow with a joint space are checked against
``errors.MEMORY_CAP_BYTES`` by ``errors.check_memory`` before they are
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConeError,
    InternalError,
    InvalidDimensionError,
    NormalizationError,
    UnsupportedSpaceError,
    check_memory,
)

CONE_TOL = 1e-9
NORM_TOL = 1e-9
# A descriptor holds two float64 vectors, 16 bytes per coordinate.  The
# bound of 96 was measured when every built-in space also stored a label
# string per coordinate; it is kept, not re-measured, so that no descriptor
# is accepted that was refused before.
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


@dataclass(frozen=True, eq=False)
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
    level:
        Kind parameter: Hilbert-space dimension, outcome count, or vertex
        count.  ``None`` only for the bipartite boxworld space.
    factor_levels:
        Matrix-valued kinds only: the level d_i of each Kronecker factor of
        the basis, whose element order ``factor_layout`` gives (complex for
        ``quantum``, real for ``real-quantum``).  Basis element ``k`` is the
        Kronecker product of one element per factor, ``k`` being the
        row-major flat index of their indices.  A built-in space has one
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
    level: int | None = None
    factor_levels: tuple[int, ...] | None = None
    vertices: np.ndarray | None = None
    effects: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("order_unit", "max_mixed", "vertices", "effects"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _frozen(np.asarray(a)))

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

    def bloch(self, omega: np.ndarray) -> np.ndarray:
        """Bloch vector ``omega - max_mixed`` of a normalized state, or of each row of a (m, K) stack."""
        omega = np.asarray(omega, dtype=float)
        units = np.atleast_1d(omega @ self.order_unit)
        off = np.abs(units - 1.0) > NORM_TOL
        if off.any():
            raise NormalizationError(
                f"state has order-unit value {float(units[off][0])!r}, expected 1"
            )
        return omega - self.max_mixed

    # -- matrix representation (quantum kinds) ------------------------------------

    def _layouts(self) -> list[FactorLayout]:
        if self.factor_levels is None:
            raise UnsupportedSpaceError(f"space kind {self.kind!r} has no matrix form")
        return [factor_layout(d, self.kind == KIND_REAL_QUANTUM) for d in self.factor_levels]

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        """The matrix ``sum_k c_k B_k`` of coordinates, or of each in a stack.

        The inverse of ``to_coords``: ``_pair_matrix`` scatters each factor's
        coordinates to its (row, column) axis pair, and the pairs are then
        reordered to rows (i_1..i_m) and columns (j_1..j_m).  Complex kinds
        give complex matrices.
        """
        layouts = self._layouts()
        coords = np.asarray(coords)
        lead, m = coords.shape[:-1], len(layouts)
        t, before, after = coords, math.prod(lead), self.K
        for lay in layouts:
            after //= lay.K
            t = _pair_matrix(t.reshape(before, lay.K, after), lay)
            before *= lay.d**2
        t = t.reshape(math.prod(lead), *(lay.d for lay in layouts for _ in "ij"))
        t = t.transpose(0, *range(1, 2 * m + 1, 2), *range(2, 2 * m + 1, 2))
        return t.reshape(*lead, self.level, self.level)

    def to_coords(self, matrix: np.ndarray) -> np.ndarray:
        """Real parts of the coordinates ``c_k = Tr(B_k @ M)`` of a matrix, or of each in a stack.

        ``M`` is viewed with row axes (r_1..r_m) and column axes (c_1..c_m),
        and ``_pair_coords`` replaces each factor's pair (r_f, c_f) by its
        coordinates.  That map is linear and needs no Hermitian input, so it
        also holds on the partial results of a joint.
        """
        layouts = self._layouts()
        matrix = np.asarray(matrix)
        matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
        lead, dims, m = matrix.shape[:-2], [lay.d for lay in layouts], len(layouts)
        t = matrix.reshape(math.prod(lead), *dims, *dims)
        t = t.transpose(0, *(a for f in range(1, m + 1) for a in (f, f + m)))
        before, after = math.prod(lead), self.level**2
        for f, lay in enumerate(layouts):
            after //= lay.d**2
            t = _pair_coords(t.reshape(before, lay.d, lay.d, after), lay, take_real=f == m - 1)
            before *= lay.K
        return t.reshape(*lead, self.K)

    @cached_property
    def hermitian_basis(self) -> np.ndarray | None:
        """The ``(K, d, d)`` stacked basis, ``to_matrix(eye(K))``, built on first access.

        ``None`` for kinds without a matrix form.  The stack grows like d^4;
        ``to_matrix`` holds about three of its size at its peak, and that is
        refused beyond ``errors.MEMORY_CAP_BYTES``.
        """
        if self.factor_levels is None:
            return None
        n, itemsize = self.level, 8 if self.kind == KIND_REAL_QUANTUM else 16
        check_memory(3 * itemsize * self.K * n * n,
                     f"the stacked {self.K}-element basis of {n} x {n} matrices")
        return _frozen(self.to_matrix(np.eye(self.K)))

    # -- cone test ----------------------------------------------------------------

    def cone_contains(self, x: np.ndarray) -> bool:
        """Membership test for the cone of unnormalized states, up to ``CONE_TOL``."""
        x = np.asarray(x, dtype=float)
        if self.kind == KIND_CLASSICAL:
            return bool(np.all(x >= -CONE_TOL))
        if self.kind in _MATRIX_KINDS:
            eigs = np.linalg.eigvalsh(self.to_matrix(x))
            return bool(np.all(eigs >= -CONE_TOL))
        if self.effects is not None:
            return bool(np.all(self.effects @ x >= -CONE_TOL))
        raise UnsupportedSpaceError(f"no cone test for kind {self.kind!r}")

    # -- pure states ---------------------------------------------------------------

    def sample_pures(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """A (size, K) stack of uniformly random pure states (group-orbit uniform).

        Matrix kinds map one ``randomize.haar_kets`` stack with one
        ``to_coords``; the others gather at uniform indices, drawn as ``size``
        single draws.
        """
        if self.kind in _MATRIX_KINDS:
            # Imported here: the estimators own the ket draw, and importing
            # this module loads no layer above it.
            from .randomize import haar_kets

            psi = haar_kets(size, self.level, rng, real=self.kind == KIND_REAL_QUANTUM)
            return self.to_coords(psi[:, :, None] * psi[:, None, :].conj())
        if self.kind == KIND_CLASSICAL:
            e = np.zeros((size, self.K))
            e[np.arange(size), rng.integers(self.K, size=size)] = 1.0
            return e
        if self.vertices is not None:
            return self.vertices[rng.integers(len(self.vertices), size=size)]
        raise UnsupportedSpaceError(f"no pure-state sampler for kind {self.kind!r}")

    def sample_pure(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random pure state: the size-1 case of ``sample_pures``."""
        return self.sample_pures(rng, 1)[0]


def validate_state(space: SpaceDescriptor, omega: np.ndarray) -> None:
    """Raise unless ``omega`` is a normalized state of ``space``, up to ``NORM_TOL``."""
    omega = np.asarray(omega, dtype=float)
    if abs(space.unit(omega) - 1.0) > NORM_TOL:
        raise NormalizationError(f"order-unit value {space.unit(omega)!r} != 1")
    if not space.cone_contains(omega):
        raise ConeError("state fails the cone test")


def random_mixtures(space: SpaceDescriptor, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random convex mixtures of K+1 sampled pure states, shape (count, K)."""
    pures = space.sample_pures(rng, space.K + 1)
    weights = rng.dirichlet(np.ones(len(pures)), size=count)
    return weights @ pures


# -- generalized Gell-Mann coordinates -------------------------------------------------


class FactorLayout(NamedTuple):
    """The basis order of one d-level matrix factor; see ``factor_layout``."""

    d: int
    real: bool
    rows: np.ndarray
    cols: np.ndarray
    scale: np.ndarray
    K: int


@lru_cache(maxsize=None)
def factor_layout(d: int, real: bool) -> FactorLayout:
    """Order of the orthonormal basis of d x d Hermitian (``real``: symmetric) matrices.

    With E_jk the matrix units and the pairs j < k in row-major order
    (``rows``, ``cols``): u = identity/sqrt(d), then x_jk =
    (E_jk + E_kj)/sqrt(2), y_jk = i (E_kj - E_jk)/sqrt(2) for complex
    factors, and z_l = (sum_{i<l} E_ii - l E_ll)/sqrt(l (l+1)) for
    l = 1..d-1: K = d^2 elements, or d(d+1)/2 without the y.  ``scale``
    holds each element's normalizing divisor.
    """
    rows, cols = np.triu_indices(d, 1)
    k = d * (d + 1) // 2 if real else d * d
    steps = np.arange(1.0, d)
    scale = np.concatenate([[math.sqrt(d)], np.full(k - d, math.sqrt(2)),
                            np.sqrt(steps * (steps + 1))])
    return FactorLayout(d, real, _frozen(rows), _frozen(cols), _frozen(scale), k)


def _pair_coords(t: np.ndarray, lay: FactorLayout, *, take_real: bool) -> np.ndarray:
    """Coordinates of each (d, d) slice M of a (X, d, d, Y) array, as (X, K_d, Y).

    u = Tr M/sqrt(d), x_jk = (M_jk + M_kj)/sqrt(2), y_jk = i (M_jk - M_kj)/sqrt(2)
    and z_l = (sum_{i<l} M_ii - l M_ll)/sqrt(l (l+1)).  ``take_real`` keeps
    only the real parts, and forms no complex one.
    """
    diag = t[:, np.arange(lay.d), np.arange(lay.d)]
    hi, lo = t[:, lay.rows, lay.cols], t[:, lay.cols, lay.rows]
    if take_real:
        diag, x, y = diag.real, hi.real + lo.real, None if lay.real else lo.imag - hi.imag
    else:
        x, y = hi + lo, None if lay.real else 1j * (hi - lo)
    del hi, lo
    z = np.cumsum(diag, axis=1)[:, :-1] - np.arange(1, lay.d)[:, None] * diag[:, 1:]
    parts = (diag.sum(axis=1, keepdims=True), x, y, z)
    out = np.concatenate([a for a in parts if a is not None], axis=1)
    out /= lay.scale[:, None]
    return out


def _pair_matrix(c: np.ndarray, lay: FactorLayout) -> np.ndarray:
    """The inverse of ``_pair_coords``: (X, K_d, Y) coordinates to (X, d, d, Y) matrices.

    M_jk = (x_jk - i y_jk)/sqrt(2), M_kj = (x_jk + i y_jk)/sqrt(2), and the
    diagonal entry i is u/sqrt(d) + sum_{l>i} z_l/s_l - i z_i/s_i.
    """
    d, p = lay.d, len(lay.rows)
    c = c / lay.scale[:, None]
    x, w = c[:, 1:1 + p], c[:, lay.K - (d - 1):]
    out = np.zeros((len(c), d, d, c.shape[2]), dtype=c.dtype if lay.real else complex)
    iy = 0.0 if lay.real else 1j * c[:, 1 + p:1 + 2 * p]
    out[:, lay.rows, lay.cols] = x - iy
    out[:, lay.cols, lay.rows] = x + iy
    diag = np.repeat(c[:, :1], d, axis=1)
    diag[:, :-1] += np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    diag[:, 1:] -= np.arange(1, d)[:, None] * w
    out[:, np.arange(d), np.arange(d)] = diag
    return out


# -- builders --------------------------------------------------------------------------


def build_quantum(n: int) -> SpaceDescriptor:
    """Quantum n-level system, vectorized in the Hermitian basis.

    K = n^2, N = n.  The cone test checks positive semidefiniteness of the
    reassembled matrix; the maximally mixed state is identity/n.
    """
    if n < 2:
        raise InvalidDimensionError(f"quantum level count must be >= 2, got {n}")
    return _matrix_space(KIND_QUANTUM, n, n * n)


def _matrix_space(kind: str, n: int, k: int) -> SpaceDescriptor:
    """One n-level matrix factor with K = k, refused up front beyond the memory cap."""
    check_memory(DESCRIPTOR_BYTES_PER_COORD * k, f"the {n}-level {kind} space")
    order_unit, max_mixed = np.zeros(k), np.zeros(k)
    order_unit[0], max_mixed[0] = math.sqrt(n), 1 / math.sqrt(n)
    return SpaceDescriptor(
        kind=kind,
        K=k,
        N=n,
        order_unit=order_unit,
        max_mixed=max_mixed,
        level=n,
        factor_levels=(n,),
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
        level=n,
    )


def _polygon_vertices(n: int) -> np.ndarray:
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.ones(n), np.cos(ang), np.sin(ang)])


def _polygon_effects(n: int) -> np.ndarray:
    """Edge covectors: x*cos(phi_k) + y*sin(phi_k) <= u*cos(pi/n)."""
    phi = (2 * np.arange(n) + 1) * np.pi / n
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
    return _matrix_space(KIND_REAL_QUANTUM, m, m * (m + 1) // 2)


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


def lift_plane(g: np.ndarray) -> np.ndarray:
    """Lift a 2x2 Bloch-plane symmetry, or each of a (..., 2, 2) stack, to the
    3-dim ambient coordinates."""
    t = np.tile(np.eye(3), (*np.shape(g)[:-2], 1, 1))
    t[..., 1:, 1:] = g
    return t


def _pr_orbit() -> np.ndarray:
    """Orbit of the PR state under local D4 x D4; eight distinct states."""
    w = boxworld_pr_state().reshape(3, 3)
    seen: dict[bytes, np.ndarray] = {}
    for ga in gbit_symmetries():
        for gb in gbit_symmetries():
            v = lift_plane(ga) @ w @ lift_plane(gb).T
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
    return SpaceDescriptor(
        kind=KIND_BOXWORLD_BIPARTITE,
        K=9,
        N=4,
        order_unit=order_unit,
        max_mixed=max_mixed,
        level=None,
        vertices=vertices,
        effects=effect_products,
    )


BOXWORLD_PRODUCT_COUNT = 16
BOXWORLD_PR_COUNT = 8
