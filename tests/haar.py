"""Drawn group elements, random states and the group-averaged Gram: Monte Carlo references.

No command draws a group element or a random state; tests check the exact
routes of the package against these.  ``sampler_for`` gives each built-in
space a sampler: Haar unitaries (orthogonals for real quantum theory) by
Gram-Schmidt, conjugated by ``grouprep.conjugation_matrix`` one basis element
at a time with no LAPACK or BLAS call; one row-wise shuffle for S_K beyond
``grouprep.ENUMERATE_LIMIT``; and for an enumerated group a gather at uniform
indices, which keeps ``grouprep.group_elements``.  ``group_average`` sums an
enumerated group exactly and samples any other under a memory check; the
irreducibility diagnostic, the invariant Gram by group averaging and the
sampled Pauli average are built on it.  ``haar_kets``, ``sample_pures`` and
``fixed_purity_state`` draw states.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from gptpurity import errors
from reference import grouprep as gr
from reference import statespace as ss
from gptpurity.errors import GptPurityError, RangeError, UnsupportedSpaceError

DEFAULT_GRAM_SAMPLES = 20_000
# Random Bloch vectors the irreducibility diagnostic averages over.
IRREDUCIBILITY_PROBES = 3
# Group elements drawn at once by the Monte Carlo group averages
# (``draw_blocks``); their values depend on it.
DRAW_BLOCK = 1024
# Peak bytes of ``draw_many`` per entry of its (size, K, K) result.  The Haar
# samplers peak in ``conjugation_matrix``, holding the result (8 bytes per
# entry), the unitaries and their adjoints, and the complex products and real
# temporaries of one basis element: a few (size, n, n) stacks, n^2 entries
# per element against the result's K^2 (n^2 = K complex, n^2 < 2K real).
# One 1024-element block measured 32.3 / 18.5 / 13.5 bytes per entry at
# K = 4 / 9 / 16 and 42.3 at real K = 3 (tracemalloc).
_DRAW_BYTES_PER_ENTRY = 48


class ReducibleSpaceError(GptPurityError):
    """The group action fails the irreducibility diagnostic."""


# -- random states -----------------------------------------------------------------------


def _unit_kets(rng: np.random.Generator, size: int, d: int, real: bool) -> np.ndarray:
    """``size`` Haar-random unit kets in C^d (R^d when ``real``) as (parts, size, d) reals.

    Part 0 holds the real parts, drawn before part 1, the imaginary parts.
    Each ket is divided by the square root of its squared norm, summed over
    the real parts and then the imaginary ones.  This is the draw of the
    estimators' ket kernel, which takes it one slice of samples at a time
    (``randomize._ket_rows``); the tests compare its kets with these bit
    for bit.
    """
    z = np.empty((1 if real else 2, size, d))
    rng.standard_normal(out=z)
    norm_sq = np.add.reduce(np.square(z[0]), axis=1)
    if not real:
        norm_sq += np.add.reduce(np.square(z[1]), axis=1)
    z /= np.sqrt(norm_sq)[:, None]
    return z


def haar_kets(size: int, d: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """``size`` uniformly random unit vectors in C^d (R^d when ``real``), one per row.

    The draw of the estimators' ket kernel: the real parts of the whole
    stack are drawn before the imaginary parts.
    """
    z = _unit_kets(rng, size, d, real)
    return z[0] if real else z[0] + 1j * z[1]


def sample_pures(space: ss.SpaceDescriptor, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, K) stack of uniformly random pure states (group-orbit uniform).

    Matrix kinds map one ``haar_kets`` stack with one ``to_coords``; the
    others gather at uniform indices, drawn as ``size`` single draws.
    """
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        psi = haar_kets(size, space.level, rng, real=space.kind == ss.KIND_REAL_QUANTUM)
        return space.to_coords(psi[:, :, None] * psi[:, None, :].conj())
    if space.kind == ss.KIND_CLASSICAL:
        e = np.zeros((size, space.K))
        e[np.arange(size), rng.integers(space.K, size=size)] = 1.0
        return e
    if space.vertices is not None:
        return space.vertices[rng.integers(len(space.vertices), size=size)]
    raise UnsupportedSpaceError(f"no pure-state sampler for kind {space.kind!r}")


def fixed_purity_state(space: ss.SpaceDescriptor, p0: float,
                       rng: np.random.Generator) -> np.ndarray:
    """A state of purity exactly ``p0``: sqrt(p0) * phi + (1 - sqrt(p0)) * mu.

    ``phi`` is a sampled pure state.  By Bloch linearity and the pure-state
    normalization of the Gram, the mixture has purity t^2 with t = sqrt(p0).
    There is no group-invariant measure on a fixed-purity shell for p0 < 1;
    the expected-purity formulas depend only on the purity of the initial
    state, so this mu-interpolation orbit is sufficient.
    """
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"target purity must lie in [0, 1], got {p0}")
    t = math.sqrt(p0)
    phi = sample_pures(space, rng, 1)[0]
    return t * phi + (1.0 - t) * space.max_mixed


# -- group samplers ----------------------------------------------------------------------


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


class GroupSampler(NamedTuple):
    """Uniform sampler over a space's reversible-transformation group.

    ``draw_fn``, a function of (generator, size), yields a (size, K, K) stack
    of independent elements; ``draw_many`` and ``draw_blocks`` call it under
    a memory check.  An enumerated group also keeps its ``elements``, over
    which ``group_average`` sums exactly.  Samplers are pure functions of the
    passed generator.
    """

    space: ss.SpaceDescriptor
    draw_fn: Callable[[np.random.Generator, int], np.ndarray]
    elements: np.ndarray | None = None


def sampler_for(space: ss.SpaceDescriptor) -> GroupSampler:
    """The reversible-group sampler of a built-in space.

    Haar conjugations for the matrix kinds, one row-wise shuffle for S_K
    beyond ``grouprep.ENUMERATE_LIMIT``, and a gather over
    ``grouprep.group_elements`` for every enumerable group.
    """
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        real = space.kind == ss.KIND_REAL_QUANTUM
        return GroupSampler(space, lambda rng, size: gr.conjugation_matrix(
            space, haar_unitaries(size, space.level, rng, real=real)))
    if space.kind == ss.KIND_CLASSICAL and math.factorial(space.K) > gr.ENUMERATE_LIMIT:

        def draw_many(rng, size):
            # One row-wise shuffle draws as ``size`` calls of rng.permutation(K).
            return gr.permutation_matrix(rng.permuted(np.tile(np.arange(space.K), (size, 1)),
                                                      axis=1))

        return GroupSampler(space, draw_many)
    return gather_sampler(space, gr.group_elements(space))


def gather_sampler(space: ss.SpaceDescriptor, elements: np.ndarray) -> GroupSampler:
    """The sampler of an enumerated group: a gather at uniform indices into ``elements``."""
    # A stack of uniform indices draws as ``size`` single draws would.
    return GroupSampler(space, lambda rng, size: elements[rng.integers(len(elements), size=size)],
                        elements)


def draw_many(sampler: GroupSampler, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, K, K) stack of independent uniform elements, from ``sampler.draw_fn``.

    Refused beyond ``errors.MEMORY_CAP_BYTES``, counting the conjugation
    intermediates of the Haar samplers.
    """
    k = sampler.space.K
    errors.check_memory(_DRAW_BYTES_PER_ENTRY * size * k * k,
                        f"a stack of {size} group elements on {k} coordinates")
    return sampler.draw_fn(rng, size)


def draw_blocks(sampler: GroupSampler, rng: np.random.Generator,
                total: int) -> Iterator[np.ndarray]:
    """``total`` independent elements as ``draw_many`` stacks of ``DRAW_BLOCK``.

    Blocks shrink (to one element at the least) where a full block would
    pass ``errors.MEMORY_CAP_BYTES``; only the last block is shorter
    otherwise.
    """
    block = _draw_block(sampler.space.K)
    for lo in range(0, total, block):
        yield draw_many(sampler, rng, min(block, total - lo))


def _draw_block(k: int) -> int:
    """Elements per ``draw_blocks`` stack on ``k`` coordinates."""
    return max(1, min(DRAW_BLOCK, errors.MEMORY_CAP_BYTES // (_DRAW_BYTES_PER_ENTRY * k * k)))


# -- group averages ----------------------------------------------------------------------


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
    """Average of ``f`` over the group: an exact sum or a Monte Carlo mean.

    ``f`` maps a (size, K, K) stack of elements to per-element values of
    shape (size, ...).  An enumerated group is summed exactly over
    ``sampler.elements``, leaving ``rng`` untouched; any other group draws
    ``trials`` >= 2 elements through ``draw_blocks`` from ``rng``
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
    blocks = draw_blocks(sampler, rng, trials)
    if value.ndim == 0:
        # The blocks' values and their concatenation are alive at once.
        errors.check_memory(2 * 8 * trials, f"2 arrays of {trials} per-sample values")
        vals = np.concatenate([f(ts) for ts in blocks])
        return GroupAverage(vals.mean(), vals.std(ddof=1) / math.sqrt(trials), trials, False)
    block = min(trials, _draw_block(k))
    errors.check_memory(8 * (block + 1) * value.size,
                        f"a block of {block} per-sample values of width {value.size} and their sum")
    return GroupAverage(sum(f(ts).sum(axis=0) for ts in blocks) / trials, None, trials, False)


def pauli_haar_average(space, sampler, x, omega, n_samples=10_000, rng=None) -> GroupAverage:
    """Average of (X o T)(omega)^2 over the reversible group, with float fields.

    Equals purity(omega) / (K - 1) for any Pauli map on an irreducible space.
    An enumerated group is summed exactly, reading no ``rng``; any other
    draws ``n_samples`` elements from it.
    """
    omega = np.asarray(omega, dtype=float)
    avg = group_average(
        sampler, lambda ts: x.evaluate_many(np.einsum("bkl,l->bk", ts, omega)) ** 2, rng, n_samples)
    return avg._replace(mean=float(avg.mean), stderr=float(avg.stderr))


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
    p = gr.GramMatrix(1.0, space.order_unit).matrix
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
) -> np.ndarray:
    """Invariant Gram by group averaging of the Euclidean Bloch product.

    Averages T^T E T over the group with ``group_average`` (exact for
    enumerated finite groups, ``n_avg`` draws with ~1/sqrt(n_avg) error
    otherwise) and rescales so 32 sampled pure states have mean norm 1.
    Returns the read-only dense K x K array.
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
    e = gr.GramMatrix(1.0, space.order_unit).matrix
    g = group_average(sampler, lambda ts: ts.transpose(0, 2, 1) @ e @ ts, rng, n_avg).mean
    b = sample_pures(space, rng, 32) - space.max_mixed
    scale = 1.0 / float(np.mean(np.einsum("bi,ij,bj->b", b, g, b)))
    return ss._frozen(scale * g)
