"""Drawn group elements and the group-averaged Gram: Monte Carlo references.

No command runs this module; tests check the exact routes against it.  It
holds the Haar samplers of ``grouprep.sampler_for`` (Gram-Schmidt unitaries
conjugated by ``grouprep.conjugation_matrix`` one basis element at a time,
with no LAPACK or BLAS call),
the memory-checked drawing of any ``grouprep.GroupSampler`` (through which
``grouprep.group_average`` samples), the irreducibility diagnostic and the
invariant Gram by group averaging, a dense K x K array that tests compare
with ``grouprep.analytic_gram``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import errors
from . import grouprep as gr
from . import statespace as ss
from .errors import RangeError, ReducibleSpaceError

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


def _haar_sampler(space: ss.SpaceDescriptor, real: bool) -> gr.GroupSampler:
    """Conjugations by Haar unitaries (orthogonals when ``real``), drawn in stacks."""
    return gr.GroupSampler(space, lambda rng, size: gr.conjugation_matrix(
        space, haar_unitaries(size, space.level, rng, real=real)))


def draw_many(sampler: gr.GroupSampler, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, K, K) stack of independent uniform elements, from ``sampler.draw_fn``.

    Refused beyond ``errors.MEMORY_CAP_BYTES``, counting the conjugation
    intermediates of the Haar samplers.
    """
    k = sampler.space.K
    errors.check_memory(_DRAW_BYTES_PER_ENTRY * size * k * k,
                        f"a stack of {size} group elements on {k} coordinates")
    return sampler.draw_fn(rng, size)


def draw_blocks(sampler: gr.GroupSampler, rng: np.random.Generator,
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


def check_irreducible(
    space: ss.SpaceDescriptor,
    sampler: gr.GroupSampler,
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
    sampler: gr.GroupSampler,
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
        avg = gr.group_average(sampler, lambda ts: np.einsum("bi,bj->bij", ts @ x, ts @ x),
                               rng, trials)
        c = np.trace(avg.mean) / (space.K - 1)
        worst = max(worst, float(np.max(np.abs(avg.mean - c * p)) / c))
    return worst, 1e-8 if avg.exact else 10.0 / math.sqrt(trials)


def invariant_gram(
    space: ss.SpaceDescriptor,
    sampler: gr.GroupSampler,
    n_avg: int = DEFAULT_GRAM_SAMPLES,
    rng: np.random.Generator | None = None,
    *,
    check_trials: int = 4000,
) -> np.ndarray:
    """Invariant Gram by group averaging of the Euclidean Bloch product.

    Averages T^T E T over the group with ``grouprep.group_average`` (exact
    for enumerated finite groups, ``n_avg`` draws with ~1/sqrt(n_avg) error
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
    g = gr.group_average(sampler, lambda ts: ts.transpose(0, 2, 1) @ e @ ts, rng, n_avg).mean
    b = space.sample_pures(rng, 32) - space.max_mixed
    scale = 1.0 / float(np.mean(np.einsum("bi,ij,bj->b", b, g, b)))
    return ss._frozen(scale * g)
