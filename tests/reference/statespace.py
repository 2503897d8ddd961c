"""Concrete convex state spaces over a shared real-coordinate descriptor.

Every space is described by the same data: an ambient real dimension ``K``,
an order unit (the covector giving total probability) and the maximally mixed
state; a polygon also holds its vertices, its pure states.  The spaces are the
single-system ones; the gbit, boxworld's local system, is the square
``build_polygon(4)``, and bipartite boxworld is held exactly, with no
descriptor, in ``boxworld``.  Nothing here draws a random state.
Matrix-valued theories (quantum over C, quantum over R) are vectorized in a
fixed orthonormal Hermitian basis whose first element is ``identity/sqrt(d)``,
so that states of all kinds are plain real vectors.  It is the generalized
Gell-Mann basis (Bertlmann and Krammer, J. Phys. A 41, 235303, 2008): each
off-diagonal element has two nonzero entries and each diagonal z_l has
l + 1, so coordinates are index arithmetic.  A descriptor stores no basis: a
matrix kind is one Gell-Mann factor of its level.

Arrays that grow with a space are checked against
``errors.MEMORY_CAP_BYTES`` by ``errors.check_memory`` before they are
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from gptpurity.errors import RangeError, check_memory

from . import NormalizationError

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
        One of ``quantum``, ``classical``, ``polygon``, ``real-quantum``.
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
        count.
    vertices:
        ``(n, K)`` array of a polygon's pure states, in the order of
        ``_polygon_vertices``.
    """

    kind: str
    K: int
    N: int
    order_unit: np.ndarray
    max_mixed: np.ndarray
    level: int
    vertices: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("order_unit", "max_mixed", "vertices"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _frozen(np.asarray(a)))

    # -- generic linear structure -------------------------------------------------

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

    def _require_matrix_form(self) -> None:
        if self.kind not in _MATRIX_KINDS:
            raise RangeError(f"space kind {self.kind!r} has no matrix form")

    def _layout(self) -> FactorLayout:
        self._require_matrix_form()
        return factor_layout(self.level, self.kind == KIND_REAL_QUANTUM)

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        """The matrix ``sum_k c_k B_k`` of coordinates, or of each in a stack.

        The inverse of ``to_coords``.  Complex kinds give complex matrices.
        """
        lay = self._layout()
        coords = np.asarray(coords)
        lead = coords.shape[:-1]
        return _pair_matrix(coords.reshape(math.prod(lead), lay.K), lay).reshape(
            *lead, lay.d, lay.d)

    def to_coords(self, matrix: np.ndarray) -> np.ndarray:
        """Real parts of the coordinates ``c_k = Tr(B_k @ M)`` of a matrix, or of each in a stack.

        The map is linear and needs no Hermitian input.
        """
        lay = self._layout()
        matrix = np.asarray(matrix)
        matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
        lead = matrix.shape[:-2]
        return _pair_coords(matrix.reshape(math.prod(lead), lay.d, lay.d), lay).reshape(
            *lead, lay.K)

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        """The ``(K, d, d)`` stacked basis, ``to_matrix(eye(K))``, built on first access.

        Refused, like ``to_matrix``, for kinds without a matrix form.  The
        stack grows like d^4; ``to_matrix`` holds about three of its size at
        its peak, and that is refused beyond ``errors.MEMORY_CAP_BYTES``.
        """
        self._require_matrix_form()
        n, itemsize = self.level, 8 if self.kind == KIND_REAL_QUANTUM else 16
        check_memory(3 * itemsize * self.K * n * n,
                     f"the stacked {self.K}-element basis of {n} x {n} matrices")
        return _frozen(self.to_matrix(np.eye(self.K)))


def with_midpoints(states: np.ndarray) -> np.ndarray:
    """The rows of a (m, K) stack, then the midpoint of each pair i < j in row-major order.

    Two quadratic forms in the Bloch vector that agree on spanning states
    and on their midpoints agree everywhere: by polarization,
    4 Q((a + b)/2) = Q(a) + Q(b) + 2 B(a, b) fixes the bilinear form B.
    """
    i, j = np.triu_indices(len(states), 1)
    return np.concatenate([states, 0.5 * (states[i] + states[j])])


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


def _pair_coords(t: np.ndarray, lay: FactorLayout) -> np.ndarray:
    """Real parts of the coordinates of each (d, d) slice M of a (X, d, d) array, as (X, K_d).

    u = Tr M/sqrt(d), x_jk = (M_jk + M_kj)/sqrt(2), y_jk = i (M_jk - M_kj)/sqrt(2)
    and z_l = (sum_{i<l} M_ii - l M_ll)/sqrt(l (l+1)); no complex part is formed.
    """
    diag = t[:, np.arange(lay.d), np.arange(lay.d)].real
    hi, lo = t[:, lay.rows, lay.cols], t[:, lay.cols, lay.rows]
    x, y = hi.real + lo.real, None if lay.real else lo.imag - hi.imag
    del hi, lo
    z = np.cumsum(diag, axis=1)[:, :-1] - np.arange(1, lay.d) * diag[:, 1:]
    parts = (diag.sum(axis=1, keepdims=True), x, y, z)
    out = np.concatenate([a for a in parts if a is not None], axis=1)
    out /= lay.scale
    return out


def _pair_matrix(c: np.ndarray, lay: FactorLayout) -> np.ndarray:
    """The inverse of ``_pair_coords``: (X, K_d) coordinates to (X, d, d) matrices.

    M_jk = (x_jk - i y_jk)/sqrt(2), M_kj = (x_jk + i y_jk)/sqrt(2), and the
    diagonal entry i is u/sqrt(d) + sum_{l>i} z_l/s_l - i z_i/s_i.
    """
    d, p = lay.d, len(lay.rows)
    c = c / lay.scale
    x, w = c[:, 1:1 + p], c[:, lay.K - (d - 1):]
    out = np.zeros((len(c), d, d), dtype=c.dtype if lay.real else complex)
    iy = 0.0 if lay.real else 1j * c[:, 1 + p:1 + 2 * p]
    out[:, lay.rows, lay.cols] = x - iy
    out[:, lay.cols, lay.rows] = x + iy
    diag = np.repeat(c[:, :1], d, axis=1)
    diag[:, :-1] += np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    diag[:, 1:] -= np.arange(1, d) * w
    out[:, np.arange(d), np.arange(d)] = diag
    return out


# -- builders --------------------------------------------------------------------------


def build_quantum(n: int) -> SpaceDescriptor:
    """Quantum n-level system, vectorized in the Hermitian basis.

    K = n^2, N = n; the maximally mixed state is identity/n.
    """
    if n < 2:
        raise RangeError(f"quantum level count must be >= 2, got {n}")
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
    )


def build_classical(n: int) -> SpaceDescriptor:
    """Classical n-outcome system: probability vectors, K = N = n."""
    if n < 2:
        raise RangeError(f"classical outcome count must be >= 2, got {n}")
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
    """Vertex k, (1, cos a, sin a) at a = 2 pi k/n: the group, Pauli set and witness read these."""
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.ones(n), np.cos(ang), np.sin(ang)])


def build_polygon(n: int) -> SpaceDescriptor:
    """Regular n-gon inscribed in the unit circle of the Bloch plane.

    K = 3.  Pure states sit at angles 2*pi*k/n starting at angle 0, with
    normalization coordinate 1; the reversible group is dihedral D_n.  The
    capacity is 2 for every n >= 4; the triangle n = 3 is the classical
    3-outcome simplex in disguise and has N = 3.  The square n = 4 is the gbit.
    """
    if n < 3:
        raise RangeError(f"polygon vertex count must be >= 3, got {n}")
    order_unit = np.array([1.0, 0.0, 0.0])
    return SpaceDescriptor(
        kind=KIND_POLYGON,
        K=3,
        N=3 if n == 3 else 2,
        order_unit=order_unit,
        max_mixed=order_unit.copy(),
        level=n,
        vertices=_polygon_vertices(n),
    )


def build_real_quantum(m: int) -> SpaceDescriptor:
    """Quantum theory over the reals: real symmetric density matrices.

    K = m(m+1)/2; the reversible group is conjugation by orthogonal matrices.
    """
    if m < 2:
        raise RangeError(f"real-quantum level count must be >= 2, got {m}")
    return _matrix_space(KIND_REAL_QUANTUM, m, m * (m + 1) // 2)

