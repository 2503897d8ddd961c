"""Reversible-transformation groups: exact sums, invariant forms and generators.

Group elements act on ambient coordinates as K x K real matrices that fix the
order unit and map the cone into itself.  This module provides

* conjugation superoperators, each column the coordinates of one conjugated
  basis element, with no LAPACK or BLAS call, and a sampler for each built-in group (Haar unitary /
  orthogonal conjugations, permutations, dihedral groups, the finite
  boxworld group) that holds an enumerated group's elements,
* ``group_average``, the one place that chooses between an exact sum over an
  enumerated group and a Monte Carlo mean over sampled elements,
* the analytic invariant inner product (Gram matrix) on the Bloch subspace,
* generators of a dense subgroup of each built-in group, under which the
  invariance of a Gram is checked exactly, and the qubit's Clifford sampler
  and Pauli-eigenstate orbit.

The Clifford groups are enumerated in ``clifford``; the Haar draws and the
group-averaged Gram, which no command runs, are in ``haar``.  Both are
reached through module aliases, so running this module runs neither.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import clifford
from . import errors
from . import haar
from . import statespace as ss
from .errors import RangeError, UnsupportedSpaceError

# The classical group S_K keeps its element list while K! is at most this
# (K <= 6); larger K draw by one row-wise shuffle.
ENUMERATE_LIMIT = 1000


# -- conjugation superoperators ------------------------------------------------------


def conjugation_matrix(space: ss.SpaceDescriptor, u: np.ndarray) -> np.ndarray:
    """Superoperator of M -> U M U^dag in a space's orthonormal Hermitian basis.

    Returns the K x K real matrix T with (T c)_k = Tr(B_k U (sum_l c_l B_l) U^dag),
    or a (..., K, K) stack of them for a (..., n, n) stack of unitaries.
    Column l is ``space.to_coords(U B_l U^dag)`` for B_l of
    ``space.hermitian_basis``, both products by ``clifford._product``: summed
    in a fixed order with no BLAS call.  One l at a time, so the working
    memory is a few (..., n, n) stacks.
    """
    u = np.asarray(u)
    u_dag = u.conj().swapaxes(-1, -2)
    out = np.empty((*u.shape[:-2], space.K, space.K))
    for l, b in enumerate(space.hermitian_basis):
        out[..., l] = space.to_coords(clifford._product(clifford._product(u, b), u_dag))
    return out


# -- group samplers --------------------------------------------------------------------


class GroupSampler(NamedTuple):
    """Uniform sampler over a space's reversible-transformation group.

    ``draw_fn``, a function of (generator, size), yields a (size, K, K) stack
    of independent elements T with ``order_unit @ T == order_unit`` and
    ``T(cone) <= cone``: one gather at uniform indices for an enumerated
    group, one Gram-Schmidt ``haar.haar_unitaries`` stack conjugated by
    ``conjugation_matrix``, one basis element at a time, for the Haar samplers, one row-wise
    ``Generator.permuted`` for large permutation groups.  ``haar.draw_many``
    and ``haar.draw_blocks`` call it under a memory check.  An enumerated
    group also keeps its ``elements``, over which ``group_average`` sums
    exactly.

    Samplers are pure functions of the passed generator.
    """

    space: ss.SpaceDescriptor
    draw_fn: Callable[[np.random.Generator, int], np.ndarray]
    elements: np.ndarray | None = None


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """The 0/1 matrix of a permutation, or of each row of a stack of permutations."""
    perm = np.asarray(perm)
    t = np.zeros((*perm.shape, perm.shape[-1]))
    np.put_along_axis(t, perm[..., None, :], 1.0, axis=-2)
    return t


def dihedral_elements(n: int) -> np.ndarray:
    """The 2n elements of D_n acting on the Bloch plane: rotations, then reflections."""
    mats = []
    for k in range(n):
        a = 2 * math.pi * k / n
        mats.append(np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]))
    for k in range(n):
        a = math.pi * k / n
        mats.append(
            np.array([[math.cos(2 * a), math.sin(2 * a)], [math.sin(2 * a), -math.cos(2 * a)]])
        )
    return np.stack(mats)


@lru_cache(maxsize=None)
def _boxworld_group_elements() -> np.ndarray:
    """All 128 reversible transformations of bipartite boxworld.

    These are the local pairs G_A (x) G_B with G in D4 on each side (G_A
    major), then each of those composed with the swap of the two parties.
    """
    g = ss.lift_plane(ss.gbit_symmetries())
    pairs = (g[:, None, :, None, :, None] * g[None, :, None, :, None, :]).reshape(64, 9, 9)
    return np.concatenate([pairs, pairs @ swap_operator(3)])


def _finite_sampler(space: ss.SpaceDescriptor, elements: np.ndarray) -> GroupSampler:
    # A stack of uniform indices draws as ``size`` single draws would.
    return GroupSampler(space, lambda rng, size: elements[rng.integers(len(elements), size=size)],
                        elements)


def sampler_for(space: ss.SpaceDescriptor) -> GroupSampler:
    """The reversible-group sampler belonging to a built-in space.

    The dihedral and boxworld groups carry their full element list, and so
    does the classical group S_K while K! <= ``ENUMERATE_LIMIT``.
    """
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        return haar._haar_sampler(space, real=space.kind == ss.KIND_REAL_QUANTUM)
    if space.kind == ss.KIND_CLASSICAL:
        if math.factorial(space.K) <= ENUMERATE_LIMIT:
            els = permutation_matrix(np.array(list(itertools.permutations(range(space.K)))))
            return _finite_sampler(space, els)

        def draw_many(rng, size):
            # One row-wise shuffle draws as ``size`` calls of rng.permutation(K).
            return permutation_matrix(rng.permuted(np.tile(np.arange(space.K), (size, 1)), axis=1))

        return GroupSampler(space, draw_many)
    if space.kind in (ss.KIND_POLYGON, ss.KIND_BOXWORLD_LOCAL):
        n = space.level if space.kind == ss.KIND_POLYGON else 4
        return _finite_sampler(space, ss.lift_plane(dihedral_elements(n)))
    if space.kind == ss.KIND_BOXWORLD_BIPARTITE:
        return _finite_sampler(space, _boxworld_group_elements())
    raise UnsupportedSpaceError(f"no group sampler for kind {space.kind!r}")


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
    elif space.kind in (ss.KIND_POLYGON, ss.KIND_BOXWORLD_LOCAL):
        scale = 1.0
    else:
        raise UnsupportedSpaceError(
            f"no pure-normalized invariant gram for kind {space.kind!r}"
        )
    return GramMatrix(scale, space.order_unit)


class GroupAverage(NamedTuple):
    """Group average of per-element values.

    ``stderr`` is 0 for an exact sum and None for a sampled average of array
    values, whose per-sample values are not kept.
    """

    mean: np.ndarray | float
    stderr: np.ndarray | float | None
    n_samples: int
    exact: bool


def group_average(
    sampler: GroupSampler,
    f: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator | None,
    trials: int,
) -> GroupAverage:
    """Average of ``f`` over the group, the one rule that picks exact or sampled.

    ``f`` maps a (size, K, K) stack of elements to per-element values of
    shape (size, ...).  An enumerated group is summed exactly over
    ``sampler.elements``, leaving ``rng`` untouched; any other group draws
    ``trials`` >= 2 elements through ``haar.draw_blocks`` from ``rng``
    (``default_rng(0)`` when it is None).  Sampled scalar values are kept for
    their standard error; array values are summed block by block, in memory
    that does not grow with ``trials``.  What is held is refused beyond
    ``errors.MEMORY_CAP_BYTES`` before any draw, the value shape read off
    ``f`` of the identity.
    """
    if sampler.elements is not None:
        vals = f(sampler.elements)
        return GroupAverage(vals.mean(axis=0), np.zeros(vals.shape[1:]), len(vals), True)
    if trials < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {trials}")
    rng = np.random.default_rng(0) if rng is None else rng
    k = sampler.space.K
    value = f(np.eye(k)[None])[0]
    blocks = haar.draw_blocks(sampler, rng, trials)
    if value.ndim == 0:
        # The blocks' values and their concatenation are alive at once.
        errors.check_memory(2 * 8 * trials, f"2 arrays of {trials} per-sample values")
        vals = np.concatenate([f(ts) for ts in blocks])
        return GroupAverage(vals.mean(), vals.std(ddof=1) / math.sqrt(trials), trials, False)
    block = min(trials, haar._draw_block(k))
    errors.check_memory(8 * (block + 1) * value.size,
                        f"a block of {block} per-sample values of width {value.size} and their sum")
    return GroupAverage(sum(f(ts).sum(axis=0) for ts in blocks) / trials, None, trials, False)


def clifford_sampler(space: ss.SpaceDescriptor) -> GroupSampler:
    """The 24 one-qubit Cliffords as an enumerated sampler on the qubit.

    The group is a unitary 2-design, so ``group_average`` of a quadratic
    function of the state over it is the Haar average exactly (Gross,
    Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
    """
    if space.kind != ss.KIND_QUANTUM or space.level != 2:
        raise UnsupportedSpaceError(f"no one-qubit Clifford group on {space.kind}-{space.level}")
    us = clifford.clifford_unitaries(1)
    return _finite_sampler(space, conjugation_matrix(space, us))


def orbit_pures(space: ss.SpaceDescriptor) -> np.ndarray:
    """Pure states that span a space, as the orbit of one under a finite subgroup.

    Vertices for the polytopes, the point masses for classical spaces, and
    for the qubit the six Pauli eigenstates: the Clifford orbit of |0><0|,
    in first-discovery order.
    """
    if space.vertices is not None:
        return space.vertices
    if space.kind == ss.KIND_CLASSICAL:
        return np.eye(space.K)
    if space.kind != ss.KIND_QUANTUM or space.level != 2:
        raise UnsupportedSpaceError(f"no pure-state orbit for {space.kind}-{space.level}")
    kets = clifford.clifford_unitaries(1)[:, :, 0]
    coords = space.to_coords(kets[:, :, None] * kets[:, None, :].conj())
    first = {}
    for i, key in enumerate(clifford._keys(coords)):
        first.setdefault(key, i)
    return coords[list(first.values())]


def group_generators(space: ss.SpaceDescriptor) -> np.ndarray:
    """A (m, K, K) stack of maps that generate a dense subgroup of the space's group.

    A form invariant under each generator is invariant under the group they
    generate and, by continuity, under its closure: the whole group.
    Classical S_K: the transposition (0 1) and the K-cycle.  Polygons and the
    gbit: every element of D_n.  Qubit: the Clifford generators H and S and
    T = diag(1, e^(i pi/4)), dense in the unitaries modulo phase (Boykin et
    al., Inf. Process. Lett. 75, 101, 2000).  Qutrit: the Clifford
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
    if space.kind in (ss.KIND_POLYGON, ss.KIND_BOXWORLD_LOCAL):
        return sampler_for(space).elements
    if space.kind == ss.KIND_QUANTUM and space.level == 2:
        us = np.stack([clifford._HADAMARD, clifford._PHASE, np.diag([1, np.exp(0.25j * np.pi)])])
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

    Both products are summed term by term in a fixed order with elementwise
    steps, so no BLAS kernel or SIMD reduction sets the rounding.
    """
    k = len(g)
    gt = sum(g[None, :, l, None] * ts[:, None, l, :] for l in range(k))
    tgt = sum(ts[:, l, :, None] * gt[:, l, None, :] for l in range(k))
    return float(np.max(np.abs(tgt - g), initial=0.0))


def swap_operator(d: int) -> np.ndarray:
    """Swap of the two tensor factors of C^d (x) C^d."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[d * j + i, d * i + j] = 1.0
    return s
