"""Reversible-transformation groups: exact sums, invariant forms and generators.

Group elements act on ambient coordinates as K x K real matrices that fix the
order unit and map the cone into itself.  This module provides

* conjugation superoperators, each column the coordinates of one conjugated
  basis element, with no LAPACK or BLAS call,
* the element stacks of the enumerable groups (dihedral groups, read off
  the polygon's vertices, S_K while K! <= ``ENUMERATE_LIMIT``, and the
  qubit's 24 Cliffords), over which commands sum exactly,
* the analytic invariant inner product (Gram matrix) on the Bloch subspace,
* generators of a dense subgroup of each built-in group, under which the
  invariance of a Gram is checked exactly, and the dimension of the space
  of forms they leave invariant, which proves that Gram unique up to scale,
* the dimension of all forms that a finite group of exact monomial maps
  fixes, by characters over the whole group, and the plain mean of T^t Q T
  over it: the references of the generator-only count and projection of
  ``gptpurity.grouprep``,
* the breadth-first closure of exact monomial maps, which enumerates the
  whole group those generator-only walks never form,
* the qubit's Pauli-eigenstate orbit.

The Clifford groups are enumerated exactly in ``clifford``, the trace oracle of
``two-design``.  No command draws a group element: the Haar samplers and the
group-averaged Gram are test references.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

import numpy as np

from gptpurity import errors
from gptpurity.errors import UnsupportedSpaceError
from gptpurity.statespace import Cyc

import cliffords

from . import clifford, statespace as ss

# The classical group S_K keeps its element list while K! is at most this
# (K <= 6).
ENUMERATE_LIMIT = 1000
# Rank threshold of ``invariant_form_dimension``, relative to the largest
# entry of its linear system.
RANK_TOL = 1e-9


# -- conjugation superoperators ------------------------------------------------------


def _sum_of_products(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """sum_p x_p y_p over broadcast pairs of complex (or real) arrays, in order.

    Each term is (xr yr - xi yi) + i (xr yi + xi yr) by elementwise real
    steps, and the terms are added in the order given, so no BLAS kernel,
    complex SIMD loop or fused multiply-add sets the rounding.  A real pair
    takes the one product x y, and a sum of real pairs only is returned as
    float64: the real part of the complex route, bit for bit.
    """
    re = im = 0.0
    for x, y in pairs:
        if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
            re = re + x * y
            continue
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
        re = re + (xr * yr - xi * yi)
        im = im + (xr * yi + xi * yr)
    if isinstance(im, float):
        return np.asarray(re, dtype=float)
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of two broadcast stacks of square matrices, summed over the
    inner index in order."""
    return _sum_of_products((a[..., :, l, None], b[..., None, l, :]) for l in range(a.shape[-1]))


def conjugation_matrix(space: ss.SpaceDescriptor, u: np.ndarray) -> np.ndarray:
    """Superoperator of M -> U M U^dag in a space's orthonormal Hermitian basis.

    Returns the K x K real matrix T with (T c)_k = Tr(B_k U (sum_l c_l B_l) U^dag),
    or a (..., K, K) stack of them for a (..., n, n) stack of unitaries.
    Column l is ``space.to_coords(U B_l U^dag)`` for B_l of
    ``space.hermitian_basis``, both products by ``_product``: summed in a
    fixed order with no BLAS call.  One l at a time, so the working
    memory is a few (..., n, n) stacks.
    """
    u = np.asarray(u)
    u_dag = u.conj().swapaxes(-1, -2)
    out = np.empty((*u.shape[:-2], space.K, space.K))
    for l, b in enumerate(space.hermitian_basis):
        out[..., l] = space.to_coords(_product(_product(u, b), u_dag))
    return out


# -- enumerable groups ------------------------------------------------------------------


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """The 0/1 matrix of a permutation, or of each row of a stack of permutations."""
    perm = np.asarray(perm)
    t = np.zeros((*perm.shape, perm.shape[-1]))
    np.put_along_axis(t, perm[..., None, :], 1.0, axis=-2)
    return t


def group_elements(space: ss.SpaceDescriptor) -> np.ndarray:
    """The (|G|, K, K) element stack of a built-in space's enumerable reversible group.

    S_K while K! <= ``ENUMERATE_LIMIT``, as permutation matrices in
    lexicographic order, and D_n for polygons: the rotations, then the
    reflections, with rotation k and reflection k taking their entries from
    vertex k's (cos, sin) = (c, s), [[c, -s], [s, c]] and [[c, s], [s, -c]].
    Other groups are refused.
    """
    if space.kind == ss.KIND_CLASSICAL and math.factorial(space.K) <= ENUMERATE_LIMIT:
        return permutation_matrix(np.array(list(itertools.permutations(range(space.K)))))
    if space.kind == ss.KIND_POLYGON:
        c, s = space.vertices[:, 1], space.vertices[:, 2]
        t = np.tile(np.eye(3), (2, space.level, 1, 1))
        t[..., 1, 1], t[..., 2, 1] = c, s
        t[0, :, 1, 2], t[0, :, 2, 2] = -s, c
        t[1, :, 1, 2], t[1, :, 2, 2] = s, -c
        return t.reshape(-1, 3, 3)
    raise UnsupportedSpaceError(f"no enumerated group for {space.kind}-{space.level}")


# -- invariant inner product -------------------------------------------------------------


class GramMatrix(NamedTuple):
    """Invariant inner product on the Bloch subspace.

    The product G is ``scale`` times the Euclidean projector onto the Bloch
    subspace ``ker u`` of the order unit u, normalized so that pure states
    have norm 1; ``scale`` records the pure-state rescaling factor that was
    applied.  So ``G x = scale (x - u (u.x)/(u.u))`` costs O(K) and nothing
    K x K is held.  ``inner``, ``norm_sq`` and ``norms_sq`` are built on
    ``apply``.  ``matrix`` is the dense form, built on each access and
    refused beyond ``errors.MEMORY_CAP_BYTES``.
    """

    scale: float
    order_unit: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense K x K Gram matrix."""
        u = self.order_unit
        errors.check_memory(8 * u.size * u.size, f"a dense {u.size} x {u.size} Gram matrix")
        return ss._frozen(self.scale * (np.eye(u.size) - np.outer(u, u) / float(u @ u)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The covector G x of a vector, or of each row of a (m, K) stack."""
        cov = ss.project_off(np.asarray(x, dtype=float), self.order_unit)
        cov *= self.scale
        return cov

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.apply(x) @ np.asarray(y, dtype=float))

    def norm_sq(self, x: np.ndarray) -> float:
        return self.inner(x, x)

    def norms_sq(self, rows: np.ndarray) -> np.ndarray:
        """Squared Gram norm of each row of a (m, K) stack."""
        rows = np.asarray(rows, dtype=float)
        return np.einsum("bk,bk->b", self.apply(rows), rows)


def analytic_gram(space: ss.SpaceDescriptor) -> GramMatrix:
    """Exact invariant Gram for the built-in transitive spaces.

    In these coordinates every reversible transformation acts as a Euclidean
    isometry of the Bloch subspace, so the invariant product is the Euclidean
    one up to the pure-state normalization: n/(n-1) for quantum and classical
    n-level systems, m/(m-1) for real quantum theory, and 1 for polygons.
    The result stores no matrix and shares the space's order unit.
    """
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_CLASSICAL, ss.KIND_REAL_QUANTUM):
        n = space.level
        scale = n / (n - 1)
    elif space.kind == ss.KIND_POLYGON:
        scale = 1.0
    else:
        raise UnsupportedSpaceError(
            f"no pure-normalized invariant gram for kind {space.kind!r}"
        )
    return GramMatrix(scale, space.order_unit)


def clifford_unitaries() -> np.ndarray:
    """The 24 one-qubit Cliffords modulo phase as a (24, 2, 2) complex stack, in the order
    of ``clifford.one_qubit_group()``, with no entry rounded (``cliffords.entries``)."""
    return np.array([cliffords.entries(e) for e in clifford.one_qubit_group()],
                    dtype=complex).reshape(-1, 2, 2)


def clifford_elements(space: ss.SpaceDescriptor) -> np.ndarray:
    """The 24 one-qubit Cliffords as a (24, 4, 4) stack of conjugations of the qubit.

    The group is a unitary 2-design, so the mean over it of a quadratic
    function of the state is the Haar average exactly (Gross, Audenaert and
    Eisert, J. Math. Phys. 48, 052104, 2007).
    """
    if space.kind != ss.KIND_QUANTUM or space.level != 2:
        raise UnsupportedSpaceError(f"no one-qubit Clifford group on {space.kind}-{space.level}")
    return conjugation_matrix(space, clifford_unitaries())


def orbit_pures(space: ss.SpaceDescriptor) -> np.ndarray:
    """Pure states that span a space, as the orbit of one under a finite subgroup.

    Vertices for the polytopes, the point masses for classical spaces, and
    for the qubit the six Pauli eigenstates: the Clifford orbit of |0><0|,
    in first-discovery order.  Two Cliffords give the same state exactly when
    their first columns have the same canonical form modulo phase.
    """
    if space.vertices is not None:
        return space.vertices
    if space.kind == ss.KIND_CLASSICAL:
        return np.eye(space.K)
    if space.kind != ss.KIND_QUANTUM or space.level != 2:
        raise UnsupportedSpaceError(f"no pure-state orbit for {space.kind}-{space.level}")
    first = {}
    for i, (k, g) in enumerate(clifford.one_qubit_group()):
        first.setdefault(clifford.canonical(k, g[0::2]), i)
    kets = clifford_unitaries()[list(first.values()), :, 0]
    return space.to_coords(kets[:, :, None] * kets[:, None, :].conj())


def group_generators(space: ss.SpaceDescriptor) -> np.ndarray:
    """A (m, K, K) stack of maps that generate a dense subgroup of the space's group.

    A form invariant under each generator is invariant under the group they
    generate and, by continuity, under its closure: the whole group.
    Classical S_K: the transposition (0 1) and the K-cycle.  Polygons: every
    element of D_n.  Qubit: the Clifford generators H
    and S and T = diag(1, e^(i pi/4)), dense in the unitaries modulo phase
    (Boykin et al., Inf. Process. Lett. 75, 101, 2000).  Qutrit: the Clifford
    generators F and P = diag(1, 1, w), w = e^(2 pi i/3), and
    T = diag(1, z, 1/z), z = e^(2 pi i/9); Clifford and any non-Clifford
    gate are dense in prime dimension (Campbell, Anwar and Browne, Phys. Rev.
    X 2, 041021, 2012).  Real qubit: the rotation by 1 rad, an irrational
    multiple of pi, and diag(1, -1).  Unitaries act by ``conjugation_matrix``,
    whose products are summed elementwise in a fixed order, so no matmul
    kernel sets their rounding.
    """
    if space.kind == ss.KIND_CLASSICAL:
        k = space.K
        return permutation_matrix(np.array([[1, 0, *range(2, k)], [*range(1, k), 0]]))
    if space.kind == ss.KIND_POLYGON:
        return group_elements(space)
    if space.kind == ss.KIND_QUANTUM and space.level == 2:
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        us = np.stack([h, np.diag([1, 1j]), np.diag([1, np.exp(0.25j * np.pi)])])
    elif space.kind == ss.KIND_QUANTUM and space.level == 3:
        w, z = np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 9)
        f = w ** np.outer(np.arange(3), np.arange(3)) / math.sqrt(3)
        us = np.stack([f, np.diag([1, 1, w]), np.diag([1, z, 1 / z])])
    elif space.kind == ss.KIND_REAL_QUANTUM and space.level == 2:
        c, s = math.cos(1.0), math.sin(1.0)
        us = np.array([[[c, -s], [s, c]], [[1.0, 0.0], [0.0, -1.0]]])
    else:
        raise UnsupportedSpaceError(f"no generator set for {space.kind}-{space.level}")
    return conjugation_matrix(space, us)


def invariance_deviation(g: np.ndarray, ts: np.ndarray) -> float:
    """max |T^t G T - G| of a dense K x K form over a (m, K, K) stack of maps.

    Both products are ``_product``s, summed term by term in a fixed order
    with elementwise steps, so no BLAS kernel or SIMD reduction sets the
    rounding.
    """
    tgt = _product(ts.swapaxes(-1, -2), _product(g, ts))
    return float(np.max(np.abs(tgt - g), initial=0.0))


def invariant_form_dimension(ts: np.ndarray) -> int:
    """Dimension of the space of symmetric K x K forms X with T^t X T = X for each T of ``ts``.

    For the generators of an irreducible group it is 2: the unit direction
    and one form on the Bloch subspace, so the invariant Gram is unique up to
    its scale.  The rank of the linear system (``_invariance_system``) is
    taken by Gaussian elimination with partial pivoting (``_rank``); like
    the system, it is built from elementwise steps with no BLAS or LAPACK
    call.
    """
    system = _invariance_system(ts)
    return system.shape[1] - _rank(system)


def character_form_count(elements: Iterable[tuple], r: int) -> int:
    """Dimension of all K x K forms that a finite group of ``gptpurity.grouprep`` maps fixes:
    (1/|G|) sum_g chi(g)^2 (Serre, *Linear Representations of Finite Groups*, 2.1).

    chi(g) = Tr g is the sum of zeta^e[i], zeta = e^(2 pi i/r), over the
    coordinates i with p[i] = i.  The average is an integer, read off after
    a check that the float sum lies within 1e-9 of it.
    """
    zeta = np.exp(2j * np.pi / r)
    chis = np.array([sum(zeta ** e for i, (p, e) in enumerate(zip(*t)) if p == i) + 0j
                     for t in elements])
    total = np.sum(chis * chis) / len(chis)
    count = round(total.real)
    assert abs(total - count) < 1e-9, total
    return count


def form_mean(form: tuple, elements: tuple, r: int) -> dict:
    """(1/|G|) sum_T T^t Q T over a finite group of ``gptpurity.grouprep`` maps, from the
    sparse entries ((k, l), w) of Q, as {(k, l): w}.

    Entry (p_k, p_l) of T^t Q T is zeta^(e_k + e_l) Q[k][l].  The terms of each pair of
    source and target entry are counted by their exponent x first, so the sum over the
    group is taken in ints and each such pair adds (sum_x count_x zeta^x) Q[k][l] once.
    """
    counts = {}
    for p, e in elements:
        for (k, l), _ in form:
            counts.setdefault(((p[k], p[l]), (k, l)), [0] * r)[(e[k] + e[l]) % r] += 1
    q, total = dict(form), {}
    for (target, source), c in counts.items():
        total[target] = total.get(target, 0) + Cyc(c) * q[source] / len(elements)
    return total


# -- the closure of exact monomial maps ------------------------------------------------


def compose(s: tuple, t: tuple, r: int) -> tuple:
    """The product S T of two ``gptpurity.grouprep`` maps."""
    (tp, te), (sp, se) = t, s
    return tuple([tp[p] for p in sp]), tuple([(e + te[p]) % r for p, e in zip(sp, se)])


def closure(generators: tuple, r: int) -> tuple:
    """The group the maps generate, breadth first from the identity: level by level,
    and within a level by frontier element, then by generator g, each new g x.

    Nothing bounds the group it forms, so a test checks each generator against
    known maps before closing them.
    """
    k = len(generators[0][0])
    found = dict.fromkeys([(tuple(range(k)), (0,) * k)])
    frontier = list(found)
    while frontier:
        fresh = [compose(g, x, r) for x in frontier for g in generators]
        frontier = [found.setdefault(y, y) for y in fresh if y not in found]
    return tuple(found)


def _invariance_system(ts: np.ndarray) -> np.ndarray:
    """The (m P, P) matrix of X -> (T^t X T - X for each T) on symmetric X, P = K(K+1)/2.

    Forms are written in the basis of symmetric matrices that is orthonormal
    under the Frobenius product, pairs a <= b in row-major order:
    E_aa = e_a e_a^t and E_ab = (e_a e_b^t + e_b e_a^t)/sqrt 2, so a form's
    coordinates are X_aa and sqrt 2 X_ab, and the system's singular values
    are those of the map.  Column p of block g holds the coordinates of
    T^t E_p T = w_p (r_a^t r_b + r_b^t r_a) less those of E_p, for the rows
    r of T, with w = 1/2 on the diagonal and 1/sqrt 2 off it.
    """
    m, k = len(ts), ts.shape[-1]
    a, b = np.triu_indices(k)
    errors.check_memory(3 * 8 * m * len(a) * len(a),
                        f"the invariant-form system of {m} maps on {k} coordinates")
    diag = a == b
    # Row q, column p: the coordinate scale of entry q times w_p.
    sw = np.where(diag, 1.0, math.sqrt(2))[:, None] * np.where(diag, 0.5, math.sqrt(0.5))

    def image(t):
        # Entry (a_q, b_q) of w_p (r_(a_p)^t r_(b_p) + r_(b_p)^t r_(a_p)), scaled.
        ta, tb = t[a], t[b]
        return sw * (ta[:, a] * tb[:, b] + tb[:, a] * ta[:, b]).T

    base = image(np.eye(k))
    return np.concatenate([image(t) - base for t in ts])


def _rank(a: np.ndarray) -> int:
    """Rank of a matrix by Gaussian elimination with partial pivoting; overwrites ``a``.

    A pivot counts when its magnitude exceeds ``RANK_TOL`` times the largest
    entry of ``a``.  Each elimination step is one elementwise outer update.
    """
    tol = RANK_TOL * max(np.max(a, initial=0.0), -np.min(a, initial=0.0))
    rank = 0
    for col in range(a.shape[1]):
        if rank == len(a):
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank + 1:, col:] -= np.multiply.outer(a[rank + 1:, col] / a[rank, col], a[rank, col:])
        rank += 1
    return rank
