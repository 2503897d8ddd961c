"""The per-block kernels of the Monte Carlo estimates: Haar kets and permuted distributions.

``randomize._estimate`` hands each block of samples to one kernel, which
returns the block's local and global values: Haar kets (``_haar_ket_block``,
real ones for real quantum theory, in-face ones for a face) or permuted
distributions (``_permutation_draw``).  No kernel takes a Gram: each group
acts irreducibly, so its invariant Gram is unique and a purity is
(n Tr rho^2 - 1)/(n - 1) on n quantum or real-quantum levels and
n/(n-1) |x - 1/n|^2 (``_classical_purities``) on n classical outcomes.  A
ket's local purity is a Schmidt-side quantity (Lubkin 1978; Page 1993):
with psi reshaped to an n_A x n_B matrix M it depends only on
Tr (M M^dagger)^2, so a block of kets gives its purities through the entries
of the smaller Gram, and no A marginal is formed.  The kets stay real and
imaginary parts, and the Gram's entries are pair sums in a fixed order with
no BLAS call, so these values are the same bits on every CPU.  A face's kets
are drawn in its (anti)symmetric subspace and laid out as n x n matrices
(``_ket_rows``).  No kernel checks a cap: ``randomize._estimate`` checks a
draw's count of its bytes and work before the first block.  Both classical
estimates, the free joint's and the recorded coin's, draw through
``_permutation_draw``.

This module uses no other layer of the package.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial

import numpy as np

# Samples per slice of a ket block, which bounds the temporaries of its
# layout and pair sums.  No value depends on it.
SLICE_SIZE = 512
# Such products per permuted element of a classical block: 11-16 ns against
# 1.4-2.8 ns per product on a 2-core x86-64 VM.
PRODUCTS_PER_ELEMENT = 8


def _ket_rows(z: list, dims: tuple[int, int], swap: int | None) -> np.ndarray:
    """The unit kets with real (and imaginary) parts ``z``, (size, d) each, as rows.

    The rows are (k, parts, L, size), samples last: entry (a, b) of M
    (n_A x n_B) is row a, column b (row b, column a when n_A > n_B).  A
    face's coordinate of the k-th pair i <= j (i < j when ``swap`` is -1),
    row-major, is the coefficient of |ii> or (|ij> + swap |ji>)/sqrt 2: it
    goes to (i, i), or times sqrt(1/2) to (i, j) and times ``swap`` sqrt(1/2)
    to (j, i), one basic slice write each.  ``z`` is divided in place by each
    ket's norm, squared and summed over the real parts and then the
    imaginary ones.
    """
    na, nb = dims
    norm = np.sqrt(sum(np.add.reduce(np.square(x), axis=1) for x in z))[:, None]
    rows = np.zeros((min(dims), len(z), max(dims), len(norm)))
    half = math.sqrt(0.5)
    for part, x in enumerate(z):
        x /= norm
        if swap is None:
            m = x.T.reshape(na, nb, -1)
            rows[:, part] = m if na <= nb else m.swapaxes(0, 1)
            continue
        pairs = ((i, j) for i in range(na) for j in range(i + (swap == -1), na))
        for k, (i, j) in enumerate(pairs):
            if i == j:
                rows[i, part, i] = x[:, k]
            else:
                np.multiply(x[:, k], half, out=rows[i, part, j])
                np.multiply(x[:, k], swap * half, out=rows[j, part, i])
    return rows


def _gram_traces(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr W and Tr W^2 of W = R R^dagger, per sample, without BLAS.

    ``rows`` holds the real (and imaginary) parts of each sample's k rows of
    length L, rows first and samples last: (k, parts, L, size), so every
    product is of two contiguous operands and numpy buffers no temporary.
    Each entry of W is a sum of contiguous vectors in a fixed order,
    k(k+1)/2 real parts and k(k-1)/2 imaginary ones, mirrored to the
    transposed entry.
    """
    k, parts, _, size = rows.shape
    re = np.empty((k, k, size))
    prod = np.empty_like(rows[0])
    terms = prod.reshape(-1, size)
    im, turned = (None, None) if parts == 1 else (np.zeros_like(re), np.empty_like(prod))
    for i, row in enumerate(rows):
        if im is not None and i + 1 < k:
            # Im W_ij = sum_l y_il x_jl - x_il y_jl: the products of (y_i, -x_i) with row j.
            turned[0] = row[1]
            np.negative(row[0], out=turned[1])
        for j in range(i, k):
            # Re W_ij = sum_l x_il x_jl + y_il y_jl.
            np.multiply(row, rows[j], out=prod)
            re[j, i] = np.add.reduce(terms, axis=0, out=re[i, j])
            if im is not None and j > i:
                np.multiply(turned, rows[j], out=prod)
                np.negative(np.add.reduce(terms, axis=0, out=im[i, j]), out=im[j, i])
    norm_sq = np.add.reduce(np.diagonal(re), axis=-1)
    # Tr W^2 = sum_ij (Re W_ij)^2 + (Im W_ij)^2, squared in place.
    np.square(re, out=re)
    if im is not None:
        re += np.square(im, out=im)
    return norm_sq, np.add.reduce(re, axis=(0, 1))


def _haar_ket_block(
    rng: np.random.Generator,
    size: int,
    t: float,
    dims: tuple[int, int],
    *,
    real: bool = False,
    swap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local and global values of ``size`` states rho = t |psi><psi| + (1-t) mu.

    The kets psi are Haar-random.  Without ``swap`` they live in
    C^(n_A n_B) (R^(n_A n_B) when ``real``), mu is maximally mixed, and the
    values are the generalized purities P_A and P.  With ``swap`` = +1 or -1
    and n_A = n_B = n they live in the symmetric or antisymmetric subspace,
    of dimension N_S = n(n + swap)/2, mu is the normalized projector onto it,
    and the values are the collision values Tr(rho_A^2) and Tr(rho^2).

    No A marginal is formed.  With psi reshaped to M (n_A x n_B), the
    smaller Gram W (M M^dagger for n_A <= n_B, M^dagger M otherwise) shares
    the nonzero spectrum of M M^dagger and Tr W = |psi|^2.  The subspaces
    are U (x) U invariant, so the A marginal of their mu is I/n and
    Tr(rho_A^2) = t^2 Tr W^2 + (2t(1-t) Tr W + (1-t)^2)/n.
    For maximally mixed mu the purities keep t^2 factored out,
    P_A = t^2 (n_A Tr W^2 - (Tr W)^2)/(n_A - 1) and P = t^2 |psi|^4, so
    t = 0 gives exactly zero.  The kets stay real arrays, taken in slices of
    ``SLICE_SIZE`` samples, and every step is elementwise or a sum in a fixed
    order, with no BLAS call: the values are the same bits on every CPU.
    """
    na, nb = dims
    n_s = na * nb if swap is None else na * (na + swap) // 2
    # Every real part is drawn before any imaginary part, as in one draw of the block.
    # No slice holds one sample alone: numpy sums the vectors of two or more
    # samples in order, but one sample's pairwise.
    slices = np.split(rng.standard_normal((size, n_s)), range(SLICE_SIZE, size - 1, SLICE_SIZE))
    norm_sq, tr_w2 = np.hstack([
        _gram_traces(_ket_rows([x] if real else [x, rng.standard_normal(x.shape)], dims, swap))
        for x in slices])
    if swap is None:
        return t * t * (na * tr_w2 - norm_sq**2) / (na - 1), t * t * norm_sq**2
    cross = 2.0 * t * (1.0 - t) * norm_sq + (1.0 - t) ** 2
    return t * t * tr_w2 + cross / na, t * t * norm_sq**2 + cross / n_s


def _ket_draw(t: float, dims: tuple[int, int], *, real: bool = False,
              swap: int | None = None) -> tuple[partial, Callable]:
    """The draw of ``_haar_ket_block`` states, and its count (``randomize._estimate``)."""
    na, nb = dims
    dim = na * nb
    k, length = min(dims), max(dims)
    parts = 1 if real else 2
    n_s = dim if swap is None else na * (na + swap) // 2
    # The pair sums multiply rows of parts x L values: k(k+1)/2 times for Re W
    # and, with imaginary parts, k(k-1)/2 times for Im W, per sample.
    products = parts * length * (k * (k + 1) // 2 + (parts - 1) * k * (k - 1) // 2)

    def cost(size: int) -> tuple[int, str, int, str]:
        # The real parts of every ket and 8 per-sample vectors; in one slice, the imaginary
        # parts and the kets' rows, then the pair sums' two products and the parts of W.
        return (8 * (size * (n_s + 8) + min(size, SLICE_SIZE + 1) * (
                    parts * (n_s + dim + 2 * length) - n_s + 2 * k**2)),
                f"{size} kets in dimension {dim} ({size} x {n_s} real parts) and their Grams",
                size * products, f"the pair sums of {size} kets' {k} x {k} Grams")

    return partial(_haar_ket_block, t=t, dims=dims, real=real, swap=swap), cost


def _classical_purities(x: np.ndarray) -> np.ndarray:
    """Purity n/(n-1) |x - 1/n|^2 of each row of n-outcome distributions; overwrites x."""
    n = x.shape[-1]
    x -= 1.0 / n
    return n / (n - 1) * np.einsum("...k,...k->...", x, x)


def _permutation_draw(k: int, k_a: int, rest: float, head: int, value: float,
                      what: str) -> tuple[Callable, Callable]:
    """The draw of uniform permutations of p on k = k_a k_b outcomes, and its count.

    p is ``value`` on its first ``head`` outcomes and ``rest`` on the others,
    and ``what`` names it.  Each block builds p, so none exists before
    ``randomize._estimate``'s checks pass.
    """

    def block(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        p = np.full(k, rest)
        p[:head] = value
        omega = np.tile(p, (size, 1))
        rng.permuted(omega, axis=1, out=omega)
        local = _classical_purities(omega.reshape(size, k_a, -1).sum(axis=2))
        return local, _classical_purities(omega)

    def cost(size: int) -> tuple[int, str, int, str]:
        # p, its permutations, their (size, k_a) A marginals and three per-sample vectors:
        # the local and global purities and a temporary of the closed form.
        return (8 * (k + size * (k + k_a + 3)), f"{what} and a block of {size} permutations of it",
                size * k * PRODUCTS_PER_ELEMENT, f"{size} permutations of {what} "
                f"({PRODUCTS_PER_ELEMENT} products per element)")

    return block, cost
