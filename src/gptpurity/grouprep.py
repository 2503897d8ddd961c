"""Reversible-transformation groups: sampling, averaging, and diagnostics.

Group elements act on ambient coordinates as K x K real matrices that fix the
order unit and map the cone into itself.  This module provides

* uniform samplers for the built-in groups (Haar unitary / orthogonal
  conjugations, permutations, dihedral groups, the finite boxworld group);
  the Haar samplers orthonormalize Ginibre columns and build conjugation
  superoperators by index arithmetic, with no LAPACK or BLAS call,
* ``group_average``, the one place that chooses between an exact sum over an
  enumerated group and a Monte Carlo mean over sampled elements,
* the invariant inner product (Gram matrix) on the Bloch subspace, both by
  group averaging and by exact analytic constructors,
* a numerical irreducibility diagnostic based on averaging rank-one maps,
* generators of a dense subgroup of each built-in group, under which the
  invariance of a Gram is checked exactly,
* enumeration of the one- and two-qubit Clifford groups, their traces (for
  two qubits from the factors, with no stacked group) and frame potential,
  which is 2 exactly for a unitary 2-design.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import errors
from . import statespace as ss
from .errors import InternalError, RangeError, ReducibleSpaceError, UnsupportedSpaceError

DEFAULT_GRAM_SAMPLES = 20_000
# Random Bloch vectors the irreducibility diagnostic averages over.
IRREDUCIBILITY_PROBES = 3
# Group elements drawn at once by the Monte Carlo group averages
# (``GroupSampler.draw_blocks``); their values depend on it.
DRAW_BLOCK = 1024
# The classical group S_K keeps its element list while K! is at most this
# (K <= 6); larger K draw by one row-wise shuffle.
ENUMERATE_LIMIT = 1000
# Peak bytes of ``draw_many`` per entry of its (size, K, K) result.  The Haar
# samplers peak in ``conjugation_matrix``'s rounds, holding the unitaries,
# M's a <= b half (n^3 (n+1)/2 reals per part), the sum being built and one
# round of terms (K^2 reals each): at most 32 bytes per entry for complex
# quantum (n^2 = K) and for real quantum (n^2 < 2K).  numpy's 64 KiB iterator
# buffer comes on top; one 1024-element block measured 40 bytes per entry at
# K = 4 and 41 at real K = 3 (tracemalloc).
_DRAW_BYTES_PER_ENTRY = 48


# -- raw matrix-group sampling -------------------------------------------------------


def haar_unitaries(
    size: int, n: int, rng: np.random.Generator, *, real: bool = False
) -> np.ndarray:
    """A (size, n, n) stack of Haar-random unitaries (orthogonal when ``real``).

    The columns of Gaussian (complex Ginibre) matrices, orthonormalized by
    modified Gram-Schmidt with one re-orthogonalization pass: the Q of the
    QR factorization whose R has a positive diagonal, which is Haar
    distributed (Mezzadri, Notices AMS 54, 592, 2007).  The real parts of
    the whole stack are drawn before the imaginary parts.  Real and
    imaginary parts stay real arrays, samples last, and every step is
    elementwise or a sum in a fixed order, with no LAPACK or BLAS call.
    """
    parts = 1 if real else 2
    z = np.empty((parts, size, n, n))
    rng.standard_normal(out=z)
    q = np.ascontiguousarray(z.transpose(0, 3, 2, 1))  # q[:, j] is column j
    del z
    prod, step = np.empty((parts, n, size)), np.empty((n, size))
    for j in range(n):
        v = q[:, j]
        for _ in range(2):
            for col in q[:, :j].swapaxes(0, 1):
                # v -= col <col, v>, with <col, v> = sum_i conj(col_i) v_i.
                cr = np.add.reduce(np.multiply(col, v, out=prod), axis=(0, 1))
                if real:
                    v[0] -= np.multiply(col[0], cr, out=step)
                    continue
                np.multiply(col[0], v[1], out=prod[0])
                np.multiply(col[1], v[0], out=prod[1])
                ci = np.add.reduce(prod[0], axis=0) - np.add.reduce(prod[1], axis=0)
                v[0] -= np.multiply(col[0], cr, out=step)
                v[0] += np.multiply(col[1], ci, out=step)
                v[1] -= np.multiply(col[0], ci, out=step)
                v[1] -= np.multiply(col[1], cr, out=step)
        v /= np.sqrt(np.add.reduce(np.square(v, out=prod), axis=(0, 1)))
    u = q.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(u[0]) if real else u[0] + 1j * u[1]


def conjugation_matrix(basis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Superoperator of M -> U M U^dag in an orthonormal Hermitian basis.

    Returns the K x K real matrix T with (T c)_k = Tr(B_k U (sum_l c_l B_l) U^dag),
    or a (size, K, K) stack of them for a (size, n, n) stack of unitaries.
    With B_k = sum_p w_kp E_(i_p j_p) over its few nonzero entries,
    U B_l U^dag is a short sum of outer products of U's columns, and
    T_kl = Re sum_pq w_kp w_lq M_(j_p i_p i_q j_q) with M_abcd = U_ac conj(U_bd).
    A Hermitian basis pairs each term with its mirror, the term of the
    transposed entries, of equal real part: M_badc = conj(M_abcd) and the
    weights conjugate.  So only M_abcd with a < b, or a = b and c <= d, is
    formed and read, twice for a mirrored pair, and each T entry is a few
    real terms: a coefficient times Re or Im of one such M entry.  The terms
    are gathered by index and added in rounds, the r-th term of every entry
    that has one in round r, so each entry's sum has a fixed order; there is
    no BLAS call.
    """
    k, n = basis.shape[0], basis.shape[1]
    u = np.asarray(u)
    lead, cplx = u.shape[:-2], np.iscomplexobj(u)
    size = math.prod(lead)
    pairs = n * (n + 1) // 2
    srcs, coefs, counts, order = _conjugation_terms(basis.shape, basis.dtype.str, basis.tobytes(),
                                                    cplx)
    # M's real (and imaginary) part, samples last, one row a at a time.
    flat = np.moveaxis(u.reshape(size, n, n), 0, -1)
    re = np.ascontiguousarray(flat.real)
    im = np.ascontiguousarray(flat.imag) if cplx else None
    m = np.empty((2 if cplx else 1, pairs, n, n, size))
    prod = np.empty((n, n, n, size)) if cplx else None
    for i in range(n):
        lo, hi = i * n - i * (i - 1) // 2, (i + 1) * n - (i + 1) * i // 2
        x, y = re[i, :, None], re[i:, None, :]
        np.multiply(x, y, out=m[0, lo:hi])
        if cplx:
            xi, yi = im[i, :, None], im[i:, None, :]
            m[0, lo:hi] += np.multiply(xi, yi, out=prod[i:])
            np.multiply(xi, y, out=m[1, lo:hi])
            m[1, lo:hi] -= np.multiply(x, yi, out=prod[i:])
    del re, im, prod
    m = m.reshape(-1, size)
    # Round 0 writes every entry that has a term, and the others are zero.
    t = np.empty((k * k, size))
    t[np.count_nonzero(counts):] = 0.0
    buf = np.empty((np.count_nonzero(counts > 1), size))
    for r in range(srcs.shape[1]):
        live = np.count_nonzero(counts > r)
        block = np.take(m, srcs[:live, r], axis=0, out=(buf if r else t)[:live], mode="clip")
        block *= coefs[:live, r, None]
        if r:
            t[:live] += block
    del m, buf
    out = np.empty((size, k * k))
    out[:, order] = t.T
    return out.reshape(*lead, k, k)


@lru_cache(maxsize=8)
def _conjugation_terms(shape: tuple, dtype: str, data: bytes, cplx: bool) -> tuple:
    """The term tables of ``conjugation_matrix`` for the basis with these bytes.

    Returns read-only (srcs, coefs, counts, order): row e holds the M rows
    and coefficients of the counts[e] terms of T entry order[e], in order,
    and the entries come by descending term count.  ``cplx`` says whether
    M has an imaginary part.  Cached, so a basis's tables are built once.
    """
    basis = np.frombuffer(data, dtype=dtype).reshape(shape)
    k, n = shape[0], shape[1]
    half = n * (n + 1) // 2 * n * n  # M rows (a <= b, c, d) of one part
    # Each element's nonzeros (row, column, weight), padded with zero weights.
    el, rows, cols = np.nonzero(basis)
    nnz = np.bincount(el, minlength=k)
    slot = np.arange(len(el)) - np.repeat(np.cumsum(nnz) - nnz, nnz)
    ij = np.zeros((2, k, nnz.max(initial=1)), dtype=np.intp)
    w = np.zeros(ij.shape[1:], dtype=basis.dtype)
    ij[:, el, slot], w[el, slot] = (rows, cols), basis[el, rows, cols]
    # The term (k, l, p, q) reads M_abcd: a = j_p, b = i_p, c = i_q, d = j_q.
    a, b = ij[1][:, None, :, None], ij[0][:, None, :, None]
    g, d = ij[0][None, :, None, :], ij[1][None, :, None, :]
    # A term read once stands for its mirror too; one that is its own
    # mirror is read alone, and the mirrors read no M entry.
    twice, alone = (a < b) | ((a == b) & (g < d)), (a == b) & (g == d)
    c = w[:, None, :, None] * w[None, :, None, :] * (2.0 * twice + alone)
    src = ((a * n - a * (a - 1) // 2 + b - a) * n + g) * n + d
    if cplx:
        # Re(c M) = Re c Re M - Im c Im M.
        src, c = np.stack([src, src + half], axis=-1), np.stack([c.real, -c.imag], axis=-1)
    src, coef = src.reshape(k * k, -1), c.real.reshape(k * k, -1)
    # Each entry's nonzero terms, in order, packed into row e of the tables;
    # entries by descending term count, so round r adds to a leading block.
    e, j = np.nonzero(coef)
    counts = np.bincount(e, minlength=k * k)
    most = counts.max(initial=0)
    at = e, np.arange(len(e)) - np.repeat(np.cumsum(counts) - counts, counts)
    srcs, coefs = np.zeros((k * k, most), dtype=np.intp), np.zeros((k * k, most))
    srcs[at], coefs[at] = src[e, j], coef[e, j]
    order = np.concatenate([np.flatnonzero(counts == v) for v in range(most, -1, -1)])
    return tuple(ss._frozen(x) for x in (srcs[order], coefs[order], counts[order], order))


# -- group samplers --------------------------------------------------------------------


class GroupSampler(NamedTuple):
    """Uniform sampler over a space's reversible-transformation group.

    ``draw`` yields a K x K real matrix T with ``order_unit @ T == order_unit``
    and ``T(cone) <= cone``.  ``draw_many`` yields a stack of independent
    elements, and ``draw_blocks`` a given number of them in memory-bounded
    stacks; ``draw`` is the size-1 case of ``draw_many``.  Every stack comes
    from ``draw_fn``, a function of (generator, size): one gather at uniform
    indices for an enumerated group, one Gram-Schmidt ``haar_unitaries``
    stack and one index-arithmetic ``conjugation_matrix`` for the Haar
    samplers (no LAPACK or BLAS call), one row-wise ``Generator.permuted``
    for large permutation groups.  An enumerated group also keeps its
    ``elements``, over which ``group_average`` sums exactly.

    Samplers are pure functions of the passed generator.
    """

    space: ss.SpaceDescriptor
    draw_fn: Callable[[np.random.Generator, int], np.ndarray]
    elements: np.ndarray | None = None

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.draw_many(rng, 1)[0]

    def draw_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """A (size, K, K) stack of independent uniform elements.

        Refused beyond ``errors.MEMORY_CAP_BYTES``, counting the
        conjugation intermediates of the Haar samplers.
        """
        k = self.space.K
        errors.check_memory(_DRAW_BYTES_PER_ENTRY * size * k * k,
                            f"a stack of {size} group elements on {k} coordinates")
        return self.draw_fn(rng, size)

    def draw_blocks(self, rng: np.random.Generator, total: int) -> Iterator[np.ndarray]:
        """``total`` independent elements as ``draw_many`` stacks of ``DRAW_BLOCK``.

        Blocks shrink (to one element at the least) where a full block would
        pass ``errors.MEMORY_CAP_BYTES``; only the last block is shorter
        otherwise.
        """
        block = _draw_block(self.space.K)
        for lo in range(0, total, block):
            yield self.draw_many(rng, min(block, total - lo))


def _draw_block(k: int) -> int:
    """Elements per ``draw_blocks`` stack on ``k`` coordinates."""
    return max(1, min(DRAW_BLOCK, errors.MEMORY_CAP_BYTES // (_DRAW_BYTES_PER_ENTRY * k * k)))


def _haar_sampler(space: ss.SpaceDescriptor, real: bool) -> GroupSampler:
    return GroupSampler(space, lambda rng, size: conjugation_matrix(
        space.hermitian_basis, haar_unitaries(size, space.level, rng, real=real)))


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
        return _haar_sampler(space, real=space.kind == ss.KIND_REAL_QUANTUM)
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

    The product G is a symmetric positive semidefinite form supported on the
    Bloch subspace ``ker u`` of the order unit u and normalized so that pure
    states have norm 1; ``scale`` records the pure-state rescaling factor
    that was applied.  Without ``stored`` (every ``analytic_gram``), G is
    ``scale`` times the Euclidean projector onto ``ker u``, so
    ``G x = scale (x - u (u.x)/(u.u))`` costs O(K) and nothing K x K is
    held.  ``stored`` is a dense K x K matrix that takes its place: the
    group-averaged reference of ``invariant_gram``.

    ``apply`` is the one operation that reads ``stored``; ``inner``,
    ``norm_sq`` and ``norms_sq`` are built on it.  ``matrix`` is the dense
    form; without ``stored`` it is built on each access and refused beyond
    ``errors.MEMORY_CAP_BYTES``.
    """

    scale: float
    order_unit: np.ndarray
    stored: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense K x K Gram matrix."""
        if self.stored is not None:
            return self.stored
        u = self.order_unit
        errors.check_memory(8 * u.size * u.size, f"a dense {u.size} x {u.size} Gram matrix")
        return ss._frozen(self.scale * (np.eye(u.size) - np.outer(u, u) / float(u @ u)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The covector G x of a vector, or of each row of a (m, K) stack."""
        x = np.asarray(x, dtype=float)
        if self.stored is not None:
            return x @ self.stored
        cov = ss.project_off(x, self.order_unit)
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
    ``trials`` >= 2 elements through ``GroupSampler.draw_blocks`` from ``rng``
    (``default_rng(0)`` when it is None).  Sampled
    scalar values are kept for their standard error; array values are summed
    block by block, in memory that does not grow with ``trials``.  What is
    held is refused beyond ``errors.MEMORY_CAP_BYTES`` before any draw, the
    value shape read off ``f`` of the identity.
    """
    if sampler.elements is not None:
        vals = f(sampler.elements)
        return GroupAverage(vals.mean(axis=0), np.zeros(vals.shape[1:]), len(vals), True)
    if trials < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {trials}")
    rng = np.random.default_rng(0) if rng is None else rng
    k = sampler.space.K
    value = f(np.eye(k)[None])[0]
    blocks = sampler.draw_blocks(rng, trials)
    if value.ndim == 0:
        # The blocks' values and their concatenation are alive at once.
        errors.check_memory(2 * 8 * trials, f"2 arrays of {trials} per-sample values")
        vals = np.concatenate([f(ts) for ts in blocks])
        return GroupAverage(vals.mean(), vals.std(ddof=1) / math.sqrt(trials), trials, False)
    block = min(trials, _draw_block(k))
    errors.check_memory(8 * (block + 1) * value.size,
                        f"a block of {block} per-sample values of width {value.size} and their sum")
    return GroupAverage(sum(f(ts).sum(axis=0) for ts in blocks) / trials, None, trials, False)


def check_irreducible(
    space: ss.SpaceDescriptor,
    sampler: GroupSampler,
    trials: int = 2000,
    rng: np.random.Generator | None = None,
    n_probes: int = IRREDUCIBILITY_PROBES,
) -> float:
    """Deviation of the averaged rank-one map from a multiple of the identity.

    For random Bloch vectors x, the group average of T x x^T T^T must be
    c * P with P the projector onto the Bloch subspace; the returned value is
    the maximum relative entry deviation over probes.  Values of order one
    indicate a reducible action; an irreducible action gives a value at the
    statistical-error scale (zero for exact finite sums).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    return _rank_one_deviation(space, sampler, trials, rng, n_probes)[0]


def _rank_one_deviation(
    space: ss.SpaceDescriptor,
    sampler: GroupSampler,
    trials: int,
    rng: np.random.Generator,
    n_probes: int,
) -> tuple[float, float]:
    """``check_irreducible``'s deviation, and the threshold an irreducible
    action stays under: 1e-8 for an exact sum, ten times the statistical
    error 1/sqrt(trials) otherwise."""
    if n_probes < 1:
        raise RangeError(f"need at least 1 probe, got {n_probes}")
    p = space.bloch_projector()
    worst = 0.0
    for _ in range(n_probes):
        x = p @ rng.normal(size=space.K)
        x /= np.linalg.norm(x)
        avg = group_average(sampler, lambda ts: np.einsum("bi,bj->bij", ts @ x, ts @ x),
                            rng, trials)
        c = np.trace(avg.mean) / (space.K - 1)
        worst = max(worst, float(np.max(np.abs(avg.mean - c * p)) / c))
    return worst, 1e-8 if avg.exact else 10.0 / math.sqrt(trials)


def invariant_gram(
    space: ss.SpaceDescriptor,
    sampler: GroupSampler,
    n_avg: int = DEFAULT_GRAM_SAMPLES,
    rng: np.random.Generator | None = None,
    *,
    check_trials: int = 4000,
) -> GramMatrix:
    """Invariant Gram by group averaging of the Euclidean Bloch product.

    Averages T^T E T over the group with ``group_average`` (exact for
    enumerated finite groups, ``n_avg`` draws with ~1/sqrt(n_avg) error
    otherwise) and rescales so 32 sampled pure states have mean norm 1.
    Raises ``ReducibleSpaceError``, before the Gram average, when the
    irreducibility diagnostic exceeds ten times the statistical error of its
    ``check_trials`` draws (1e-8 for an exact sum), since no invariant
    product is then unique.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    dev, threshold = _rank_one_deviation(space, sampler, check_trials, rng, IRREDUCIBILITY_PROBES)
    if dev > threshold:
        raise ReducibleSpaceError(
            f"irreducibility deviation {dev:.3g} exceeds threshold; "
            "the invariant inner product is not unique"
        )
    e = space.bloch_projector()
    g = group_average(sampler, lambda ts: ts.transpose(0, 2, 1) @ e @ ts, rng, n_avg).mean
    b = space.sample_pures(rng, 32) - space.max_mixed
    scale = 1.0 / float(np.mean(np.einsum("bi,ij,bj->b", b, g, b)))
    return GramMatrix(scale, space.order_unit, ss._frozen(scale * g))


# -- Clifford group and the 2-design identity ---------------------------------------------

# Frontier elements expanded per stacked product in the Clifford closure; it
# bounds the product arrays, which no stored element is a view of.
_CLOSURE_CHUNK = 256


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    """Multiply each unitary of a (..., d, d) stack, in place, by the phase that
    makes its first entry of modulus above 1e-9 real and positive; return ``u``.

    A unitary's first row has unit norm, so that entry lies in row 0.
    """
    row = u[..., 0, :]
    z = np.take_along_axis(row, np.argmax(np.abs(row) > 1e-9, axis=-1)[..., None], axis=-1)
    u *= (z.conj() / np.abs(z))[..., None]
    return u


def _keys(u: np.ndarray) -> list[bytes]:
    """The rounded-entry key of each entry of a stack: each (d, d) matrix, or each row."""
    raw = (np.round(u, 9) + 0.0).tobytes()
    step = len(raw) // len(u)
    return [raw[i:i + step] for i in range(0, len(raw), step)]


def _bfs_closure(generators: list[np.ndarray], expect: int) -> np.ndarray:
    """Breadth-first closure of the generated group modulo phase.

    Elements come in discovery order: level by level, and within a level by
    frontier element, then by generator.  Each chunk of the frontier is
    multiplied by every generator in one stacked product, and new elements
    are copied into one preallocated (expect, d, d) array, which is returned.
    """
    gens = np.stack(generators)
    d = gens.shape[1]
    out = np.empty((expect, d, d), dtype=complex)
    out[0] = np.eye(d)
    seen = set(_keys(out[:1]))
    lo, hi = 0, 1  # the current level is out[lo:hi]
    while lo < hi:
        n = hi
        for c in range(lo, hi, _CLOSURE_CHUNK):
            frontier = out[c:min(c + _CLOSURE_CHUNK, hi), None]
            prod = _phase_canonical(np.matmul(gens[None], frontier)).reshape(-1, d, d)
            fresh = []
            for i, k in enumerate(_keys(prod)):
                if k not in seen:
                    seen.add(k)
                    fresh.append(i)
            if n + len(fresh) > expect:
                raise InternalError(f"group closure exceeded {expect} elements")
            out[n:n + len(fresh)] = prod[fresh]
            n += len(fresh)
        lo, hi = hi, n
    if hi != expect:
        raise InternalError(f"group closure produced {hi} elements, expected {expect}")
    return out


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker products a_i (x) b_j of two stacks of square matrices, i-major."""
    (m, p, _), (n, q, _) = a.shape, b.shape
    return np.einsum("aij,bkl->abikjl", a, b).reshape(m * n, p * q, p * q)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASE = np.diag([1, 1j])


def _two_qubit_factors() -> tuple[np.ndarray, np.ndarray]:
    """The one-qubit Clifford group and the 20 coset representatives of ``clifford_unitaries(2)``.

    C_2 / phase = (C_1 (x) C_1) {I, CNOT S, iSWAP S, SWAP},  S in S_1 (x) S_1,
    the four-class decomposition of two-qubit randomized benchmarking
    (Barends et al., Nature 508, 500, 2014), with S_1 = {I, SH, (SH)^2},
    whose conjugations cycle the Pauli axes.  Returns (C_1, reps) with reps
    a (20, 4, 4) stack.
    """
    sh = _PHASE @ _HADAMARD
    s1 = np.stack([np.eye(2), sh, sh @ sh])
    s11 = _kron_stack(s1, s1)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    swap = np.eye(4)[[0, 2, 1, 3]]
    return clifford_unitaries(1), np.concatenate([np.eye(4)[None], cnot @ s11, iswap @ s11,
                                                  swap[None]])


@lru_cache(maxsize=None)
def clifford_unitaries(k: int = 1) -> np.ndarray:
    """The k-qubit Clifford group modulo global phase (k = 1 or 2).

    k = 1 is the breadth-first closure over the Hadamard and phase gates.
    k = 2 is the stacked product of the 576 local pairs of ``_two_qubit_factors``
    with its 20 coset representatives, local pair major; no element repeats.
    Every element carries a deterministic phase canonicalization.  Returns
    one read-only (|G|, d, d) array, shared by every caller; sizes are 24
    and 11520.
    """
    if k == 1:
        out = _bfs_closure([_HADAMARD, _PHASE], expect=24)
    elif k == 2:
        c1, reps = _two_qubit_factors()
        out = _phase_canonical(_kron_stack(c1, c1)[:, None] @ reps).reshape(-1, 4, 4)
    else:
        raise UnsupportedSpaceError(f"Clifford enumeration supports k in (1, 2), got {k}")
    out.flags.writeable = False
    return out


def clifford_traces(k: int = 1) -> np.ndarray:
    """Tr g of every element of ``clifford_unitaries(k)``, in its order, up to a phase each.

    k = 2 never stacks the group: Tr((a (x) b) r) = sum a_ij b_kl r_(jl),(ik)
    over the factors of ``_two_qubit_factors`` is one einsum, and |Tr g|
    does not depend on the phase canonicalization.
    """
    if k != 2:
        return np.trace(clifford_unitaries(k), axis1=-2, axis2=-1)
    c1, reps = _two_qubit_factors()
    return np.einsum("aij,bkl,rjlik->abr", c1, c1, reps.reshape(-1, 2, 2, 2, 2)).reshape(-1)


def clifford_sampler(space: ss.SpaceDescriptor) -> GroupSampler:
    """The 24 one-qubit Cliffords as an enumerated sampler on the qubit.

    The group is a unitary 2-design, so ``group_average`` of a quadratic
    function of the state over it is the Haar average exactly (Gross,
    Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
    """
    if space.kind != ss.KIND_QUANTUM or space.level != 2:
        raise UnsupportedSpaceError(f"no one-qubit Clifford group on {space.kind}-{space.level}")
    return _finite_sampler(space, conjugation_matrix(space.hermitian_basis, clifford_unitaries(1)))


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
    kets = clifford_unitaries(1)[:, :, 0]
    coords = space.to_coords(kets[:, :, None] * kets[:, None, :].conj())
    first = {}
    for i, key in enumerate(_keys(coords)):
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
    multiple of pi, and diag(1, -1).  Unitaries act by ``conjugation_matrix``;
    each is built entry by entry, not as a matrix product, so no matmul
    kernel sets its rounding.
    """
    if space.kind == ss.KIND_CLASSICAL:
        k = space.K
        return permutation_matrix(np.array([[1, 0, *range(2, k)], [*range(1, k), 0]]))
    if space.kind in (ss.KIND_POLYGON, ss.KIND_BOXWORLD_LOCAL):
        return sampler_for(space).elements
    if space.kind == ss.KIND_QUANTUM and space.level == 2:
        us = np.stack([_HADAMARD, _PHASE, np.diag([1, np.exp(0.25j * np.pi)])])
    elif space.kind == ss.KIND_QUANTUM and space.level == 3:
        w, z = np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 9)
        f = w ** np.outer(np.arange(3), np.arange(3)) / math.sqrt(3)
        us = np.stack([f, np.diag([1, 1, w]), np.diag([1, z, 1 / z])])
    elif space.kind == ss.KIND_REAL_QUANTUM and space.level == 2:
        c, s = math.cos(1.0), math.sin(1.0)
        us = np.array([[[c, -s], [s, c]], [[1.0, 0.0], [0.0, -1.0]]])
    else:
        raise UnsupportedSpaceError(f"no generator set for {space.kind}-{space.level}")
    return conjugation_matrix(space.hermitian_basis, us)


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


def frame_potential(traces: np.ndarray | Sequence[complex]) -> float:
    """Second frame potential F = (1/|G|) sum_g |Tr g|^4 of a finite unitary group, from its traces.

    F is the sum of the squared multiplicities of the irreducible components
    of g (x) g: an integer that is at least 2 in dimension d >= 2, with
    equality exactly when the group is a unitary 2-design (Gross, Audenaert
    and Eisert, J. Math. Phys. 48, 052104, 2007).
    """
    return float(np.mean(np.abs(np.asarray(traces)) ** 4))
