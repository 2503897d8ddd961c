"""Randomization experiments: closed-form predictions and Monte Carlo estimates.

The central experiment draws a global state of fixed purity, applies a
Haar-random reversible transformation, marginalizes to one party, and
averages the local purity.  Closed forms:

* main:        (K_A-1)/(K_A K_B-1) * (N_A N_B-1)/(N_A-1) * P0
* general:     (K_A-1)/(K_A K_B-1) * P0 / P(phi_A (x) mu_B)
* power-law:   main with K = N^r on both parts
* nonlocaltomo (K_A-1)/(K_AB-1) * P0 / (P(phi_A (x) mu_B) - |mu_C|^2),
  for compositions that are not locally tomographic.

``predict_general`` and ``predict_real_quantum`` take level counts alone.
``main``, ``general`` and ``nonlocaltomo`` are evaluated as one integer true
division, from the integer level counts and the exact ratio of the float P0
(``as_integer_ratio``), so each reported value is correctly rounded.

Every estimator runs through one Monte Carlo driver, ``_estimate``: samples
come in fixed blocks of ``BLOCK_SIZE``, block b draws from the generator
derived from (seed, b), and the blocks are reduced in order, so a report
depends on the seed and the sample count alone.  An estimator only says how
to draw one block: Haar kets (``_haar_ket_block``), Haar-conjugated fixed
states (``_conjugated_block``) or permuted distributions
(``_classical_block``), then take the local purity.  No estimator takes a
Gram: each group acts irreducibly, so its invariant Gram is unique and a
purity is (n Tr rho^2 - 1)/(n - 1) on n quantum levels and n/(n-1) |x - 1/n|^2
(``_classical_purities``) on n classical outcomes.  The default quantum
estimate needs no group element: conjugation fixes the maximally mixed
state mu, so U (t phi + (1-t) mu) U^dagger equals t |psi><psi| + (1-t) mu
for a Haar-random ket psi.  Its local purity is a Schmidt-side quantity
(Lubkin 1978; Page 1993): with psi reshaped to an n_A x n_B matrix M it
depends only on Tr (M M^dagger)^2, so a block of kets gives its purities
through one batched product of the smaller Gram, and no A marginal is
formed.  A fixed ``initial`` state is conjugated by a block of Haar
unitaries drawn with one stacked QR.  A report carries no verdict: a
``checks.Check`` judges it (``checks.markov_tail`` for its histogram).

The level-count paths use no other layer of the package, and the others reach
theirs through module aliases, so a lazily registered layer runs only if used.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np

from . import composite as comp_mod
from . import grouprep
from . import purity as pur
from . import statespace as ss
from .errors import (
    DegenerateCompositeError,
    InternalError,
    InvalidDimensionError,
    RangeError,
    UnsupportedSpaceError,
    check_memory,
)

HISTOGRAM_BINS = 100
GLOBAL_PURITY_TOL = 1e-9
# Samples per random stream.  It bounds the kernels' working memory; a
# report depends on it, so changing it changes every Monte Carlo value.
BLOCK_SIZE = 1024
# The theories whose estimates and predictions take two level counts.
QUANTUM = "quantum"
CLASSICAL = "classical"


# -- predictions ---------------------------------------------------------------------------


class Prediction(NamedTuple):
    """A closed-form expected local purity with its input echo."""

    value: float
    formula_id: str
    inputs: dict

    def to_json_dict(self) -> dict:
        return {"value": self.value, "formula_id": self.formula_id, "inputs": dict(self.inputs)}


def _check_p0(p0: float) -> None:
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")


def _main_value(k_a: int, k_b: int, n_a: int, n_b: int, p0: float) -> float:
    """The main formula, exact in integers and rounded once by the true division."""
    num, den = p0.as_integer_ratio()
    return (k_a - 1) * (n_a * n_b - 1) * num / ((k_a * k_b - 1) * (n_a - 1) * den)


def predict_main(k_a: int, k_b: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """Expected local purity for composites with a composite classical subsystem."""
    for k, n, side in ((k_a, n_a, "A"), (k_b, n_b, "B")):
        if not k >= n >= 2:
            raise RangeError(f"need K >= N >= 2 on part {side}, got K={k}, N={n}")
    _check_p0(p0)
    return Prediction(
        value=_main_value(k_a, k_b, n_a, n_b, p0),
        formula_id="main",
        inputs={"K_A": k_a, "K_B": k_b, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def _check_levels(theory: str, *levels: int) -> None:
    for n in levels:
        if n < 2:
            raise InvalidDimensionError(f"{theory} level count must be >= 2, got {n}")


def _local_dimensions(theory: str, n_a: int, n_b: int) -> tuple[int, int]:
    """K_A and K_B of two quantum or two classical parts with n_A and n_B levels."""
    if theory not in (QUANTUM, CLASSICAL):
        raise UnsupportedSpaceError(f"no level-count composite for theory {theory!r}")
    _check_levels(theory, n_a, n_b)
    return (n_a * n_a, n_b * n_b) if theory == QUANTUM else (n_a, n_b)


def predict_general(theory: str, n_a: int, n_b: int, p0: float) -> Prediction:
    """Expected local purity of two quantum or two classical parts, from their level counts.

    P(phi_A (x) mu_B) = (N_A-1)/(N_A N_B-1) holds for every composite with a
    composite classical subsystem, so no descriptor or Gram is built.
    """
    k_a, k_b = _local_dimensions(theory, n_a, n_b)
    _check_p0(p0)
    return Prediction(
        value=_main_value(k_a, k_b, n_a, n_b, p0),
        formula_id="general",
        inputs={
            "K_A": k_a,
            "K_B": k_b,
            "P0": p0,
            "P_phi_mu": (n_a - 1) / (n_a * n_b - 1),
        },
    )


def predict_power_law(r: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """The main formula in a theory class with K = N^r on both parts.

    r = 1 reduces to the classical cancellation, r = 2 to quantum theory.
    The exact value scales like N_B^(1-r) for a large second party.  Its
    integers have up to r log2(N_A N_B) bits, too many for a rational's gcd,
    so it is evaluated as one correctly rounded integer division times floats.
    """
    if r < 1 or int(r) != r:
        raise RangeError(f"power-law exponent must be a positive integer, got {r}")
    for n, side in ((n_a, "A"), (n_b, "B")):
        if n < 2:
            raise RangeError(f"need N >= 2 on part {side}, got N={n}")
    _check_p0(p0)
    # K_A K_B = (N_A N_B)^r is exact and has r log2(N_A N_B) bits.  K_A, K_B,
    # the product and the temporaries of the powers and of the division hold
    # up to about 7.4 integers of that size (tracemalloc), so eight are counted.
    check_memory(8 * math.ceil(r * math.log2(n_a * n_b) / 8),
                 f"the exact K_A = {n_a}^{r}, K_B = {n_b}^{r} and their product")
    k_a, k_b = n_a**r, n_b**r
    return Prediction(
        value=(k_a - 1) / (k_a * k_b - 1) * (n_a * n_b - 1) / (n_a - 1) * p0,
        formula_id="power-law",
        inputs={"r": r, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def predict_nonlocaltomo(
    k_a: int, k_ab: int, p0: float, p_phi_mu: float, mu_c_norm_sq: float
) -> Prediction:
    """Expected local purity without local tomography.

    ``mu_c_norm_sq`` is the squared Gram norm of the locally inaccessible
    component of the joint maximally mixed state.  The inputs enter as their
    exact values (``as_integer_ratio``, which an exact rational such as a
    ``fractions.Fraction`` also has), so the value is correctly rounded.
    """
    return _nonlocaltomo(k_a, k_ab, p0, p_phi_mu.as_integer_ratio(),
                         mu_c_norm_sq.as_integer_ratio())


def _nonlocaltomo(k_a: int, k_ab: int, p0: float, phi_mu: tuple[int, int],
                  mu_c: tuple[int, int]) -> Prediction:
    """``predict_nonlocaltomo`` with P(phi_A (x) mu_B) and |mu_C|^2 as exact integer ratios."""
    _check_p0(p0)
    (a, b), (c, d) = phi_mu, mu_c
    # P(phi (x) mu) - |mu_C|^2 = gap / (b d), with b d > 0.
    gap = a * d - c * b
    if gap <= 0:
        raise DegenerateCompositeError(
            f"P(phi (x) mu) - |mu_C|^2 = {gap / (b * d)!r} must be positive"
        )
    num, den = p0.as_integer_ratio()
    return Prediction(
        value=(k_a - 1) * num * b * d / ((k_ab - 1) * den * gap),
        formula_id="nonlocaltomo",
        inputs={
            "K_A": k_a,
            "K_AB": k_ab,
            "P0": p0,
            "P_phi_mu": a / b,
            "mu_C_norm_sq": c / d,
        },
    )


# -- Monte Carlo reports -----------------------------------------------------------------


class McReport(NamedTuple):
    """Monte Carlo estimate of an expected local purity.

    ``stderr`` is the sample standard deviation over sqrt(n);
    ``realized_global_purity`` is the mean per-sample global purity.  On the
    Haar-ket path it is computed from each ket's norm (p0 |psi|^4 when mu is
    maximally mixed; a face reports Tr(rho^2)), on the ``initial`` path from
    Tr(rho^2) after conjugation, and on the classical path from the permuted
    joint distribution.  The local values on the quantum paths come from
    Tr(rho_A^2) alone, on the Haar-ket path without forming rho_A, and on the
    classical paths from the closed form of each A marginal, with no Gram.
    Reversible transformations preserve purity, so it is constant across
    samples; a spread beyond ``GLOBAL_PURITY_TOL`` raises ``InternalError``.
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int
    realized_global_purity: float
    histogram_counts: np.ndarray | None = None
    histogram_edges: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        d = {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "realized_global_purity": self.realized_global_purity,
        }
        if self.histogram_counts is not None:
            d["histogram"] = {
                "counts": [int(c) for c in self.histogram_counts],
                "edges": [float(e) for e in self.histogram_edges],
            }
        return d


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for block ``index`` of a run with ``seed``.

    Estimators draw samples in blocks of ``BLOCK_SIZE``; every block owns an
    independent stream derived from (seed, index), so no drawn value depends
    on how the work is scheduled.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _check_run(n_samples: int, seed: int) -> None:
    """Refuse a sample count or seed that no run takes, and per-sample arrays beyond the cap."""
    if n_samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {n_samples}")
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    # The values, the global purities and one temporary of the reduction (the
    # deviations in ``std`` or the clipped values of the histogram).
    check_memory(3 * 8 * n_samples, f"3 arrays of {n_samples} per-sample values")


def _estimate(n_samples: int, seed: int, draw: Callable, histogram_bins: int | None) -> McReport:
    """The one Monte Carlo loop: every estimator is a ``draw`` over its blocks.

    Block b holds samples [b BLOCK_SIZE, (b + 1) BLOCK_SIZE) and draws from
    ``sample_rng(seed, b)``; ``draw(rng, size)`` returns the block's sample
    values and global purities (an array or one number).  Reversible
    transformations preserve purity, so a spread of the global purities
    beyond ``GLOBAL_PURITY_TOL`` raises ``InternalError``.
    """
    _check_run(n_samples, seed)
    vals = np.empty(n_samples)
    gvals = np.empty(n_samples)
    for b, lo in enumerate(range(0, n_samples, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n_samples)
        vals[lo:hi], gvals[lo:hi] = draw(sample_rng(seed, b), hi - lo)
    spread = float(np.ptp(gvals))
    if spread > GLOBAL_PURITY_TOL:
        raise InternalError(f"global purity varied by {spread:.3g} across samples")
    counts = edges = None
    if histogram_bins:
        counts, edges = np.histogram(np.clip(vals, 0.0, 1.0), bins=histogram_bins, range=(0.0, 1.0))
    return McReport(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
        seed=int(seed),
        realized_global_purity=float(gvals.mean()),
        histogram_counts=counts,
        histogram_edges=edges,
    )


def haar_kets(size: int, d: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """``size`` uniformly random unit vectors in C^d (R^d when ``real``), one per row.

    The real parts of the whole stack are drawn before the imaginary parts.
    """
    psi = rng.normal(size=(size, d))
    if not real:
        psi = psi + 1j * rng.normal(size=(size, d))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _haar_ket_block(
    rng: np.random.Generator,
    size: int,
    t: float,
    dims: tuple[int, int],
    *,
    real: bool = False,
    isometry: np.ndarray | None = None,
    sigma_a: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local and global values of ``size`` states rho = t |psi><psi| + (1-t) mu.

    The kets psi are Haar-random.  Without ``isometry`` they live in
    C^(n_A n_B) (R^(n_A n_B) when ``real``), mu is maximally mixed, and the
    values are the generalized purities P_A and P.  With it they live in
    its column space, mu is the normalized projector onto that space,
    ``sigma_a`` must be the A marginal of mu, and the values are the
    collision values Tr(rho_A^2) and Tr(rho^2).

    No A marginal is formed.  With psi reshaped to M (n_A x n_B), the
    smaller Gram W (M M^dagger for n_A <= n_B, M^dagger M otherwise) shares
    the nonzero spectrum of M M^dagger and Tr W = |psi|^2, so
    Tr(rho_A^2) = t^2 Tr W^2 + 2t(1-t) Tr(M^dagger sigma_A M) + (1-t)^2 Tr sigma_A^2.
    For maximally mixed mu the purities keep t^2 factored out,
    P_A = t^2 (n_A Tr W^2 - (Tr W)^2)/(n_A - 1) and P = t^2 |psi|^4, so
    t = 0 gives exactly zero.
    """
    na, nb = dims
    d = na * nb if isometry is None else isometry.shape[1]
    k = min(na, nb)
    # The kets (mapped into C^(n_A n_B) from an isometry's column space), their
    # conjugates and W.
    check_memory((8 if real else 16) * size * (2 * na * nb + k * k),
                 f"2 blocks of {size} kets in dimension {na * nb} and their Grams")
    psi = haar_kets(size, d, rng, real=real)
    if isometry is not None:
        psi = psi @ isometry.T
    m = psi.reshape(size, na, nb)
    mc = m.conj()
    w = m @ mc.transpose(0, 2, 1) if na <= nb else mc.transpose(0, 2, 1) @ m
    norm_sq = np.einsum("bii->b", w).real
    tr_w2 = _tr_sq(w)
    if sigma_a is None:
        return t * t * (na * tr_w2 - norm_sq**2) / (na - 1), t * t * norm_sq**2
    cross = np.einsum("ij,bjk,bik->b", sigma_a, m, mc).real
    tr_a2 = t * t * tr_w2 + 2.0 * t * (1.0 - t) * cross + (1.0 - t) ** 2 * _tr_sq(sigma_a)
    tr2 = t * t * norm_sq**2 + (2.0 * t * (1.0 - t) * norm_sq + (1.0 - t) ** 2) / d
    return tr_a2, tr2


def _conjugated_block(
    rng: np.random.Generator, size: int, phi: np.ndarray, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Local and global generalized purities of ``size`` states U phi U^dagger for Haar U.

    The unitaries come from one ``grouprep.haar_unitaries`` call; each state
    is reduced to Tr(rho_A^2) and Tr(rho^2).
    """
    n = phi.shape[0]
    # U, U phi, conj(U) and rho are alive at once.
    check_memory(4 * 16 * size * n * n, f"a block of {size} unitaries in dimension {n}")
    u = grouprep.haar_unitaries(size, n, rng)
    rho = (u @ phi) @ u.conj().transpose(0, 2, 1)
    tr_a2 = _tr_sq(partial_trace(rho, dims))
    return pur.purity_from_tr2(dims[0], tr_a2), pur.purity_from_tr2(n, _tr_sq(rho))


def _permuted_block(rng: np.random.Generator, size: int, p: np.ndarray, k_a: int) -> np.ndarray:
    """``size`` uniformly random permutations of ``p``, one per row.

    The memory check also counts the (size, k_a) A marginal every caller forms.
    """
    check_memory(8 * size * (p.size + k_a),
                 f"a block of {size} distributions on {p.size} outcomes and their marginals")
    omega = np.tile(p, (size, 1))
    return rng.permuted(omega, axis=1, out=omega)


def _tr_sq(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of a square matrix, or of each matrix in a (size, n, n) stack."""
    return np.einsum("...ij,...ji->...", rho, rho).real


def partial_trace(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The A marginal Tr_B of a (d_a d_b) square matrix, or of each in a stack."""
    da, db = dims
    return np.einsum("...ibjb->...ij", rho.reshape(*rho.shape[:-2], da, db, da, db))


def _classical_purities(x: np.ndarray) -> np.ndarray:
    """Purity n/(n-1) |x - 1/n|^2 of each row of n-outcome distributions; overwrites x."""
    n = x.shape[-1]
    x -= 1.0 / n
    return n / (n - 1) * np.einsum("...k,...k->...", x, x)


def _classical_block(
    rng: np.random.Generator, size: int, p: np.ndarray, k_a: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local and global purities of ``size`` uniform permutations of ``p``."""
    omega = _permuted_block(rng, size, p, k_a)
    local = _classical_purities(omega.reshape(size, k_a, -1).sum(axis=2))
    return local, _classical_purities(omega)


def estimate_expected_local_purity(
    theory: str,
    n_a: int,
    n_b: int,
    p0: float,
    n_samples: int,
    seed: int,
    *,
    initial: np.ndarray | None = None,
    histogram_bins: int | None = HISTOGRAM_BINS,
) -> McReport:
    """Monte Carlo mean of the local purity after global randomization.

    The parts are two quantum or two classical systems with ``n_a`` and
    ``n_b`` levels.  Each sample builds a global state of purity ``p0`` (or
    starts from the fixed ``initial`` joint coordinates when given), applies
    a uniformly random reversible transformation of the joint space, and
    takes the purity of the A marginal.  Quantum samples without ``initial``
    are t |psi><psi| + (1-t) mu for Haar-random kets psi, which has the same
    distribution; with ``initial`` a Haar unitary conjugates it.  Classical
    samples are uniform permutations of the joint distribution.

    No Gram is taken: each part's group acts irreducibly, so its invariant
    Gram is unique and every purity has a closed form, (n Tr rho^2 - 1)/(n - 1)
    for n quantum levels and n/(n-1) |x - 1/n|^2 for n classical outcomes.
    Only the ``initial`` path builds the composite descriptor, to check the
    state and read its matrix.
    """
    _local_dimensions(theory, n_a, n_b)
    _check_p0(p0)
    t = math.sqrt(p0)
    if initial is not None:
        build = ss.build_quantum if theory == QUANTUM else ss.build_classical
        joint = comp_mod.compose(build(n_a), build(n_b)).joint
        initial = np.asarray(initial, dtype=float)
        ss.validate_state(joint, initial)
        got = grouprep.analytic_gram(joint).norm_sq(initial - joint.max_mixed)
        if abs(got - p0) > 1e-9:
            raise RangeError(
                f"the supplied initial state has purity {got!r}, requested {p0}"
            )

    if theory == QUANTUM:
        if initial is None:
            draw = partial(_haar_ket_block, t=t, dims=(n_a, n_b))
        else:
            draw = partial(_conjugated_block, phi=joint.to_matrix(initial), dims=(n_a, n_b))
    else:
        if initial is None:
            k = n_a * n_b
            size = min(n_samples, BLOCK_SIZE)
            # The distribution, then the block and its marginals that
            # ``_permuted_block`` checks again once the distribution exists.
            check_memory(8 * (k + size * (k + n_a)),
                         f"a {k}-outcome distribution and a block of {size} permutations of it")
            p = np.full(k, (1.0 - t) / k)
            p[0] += t
        else:
            p = initial
        draw = partial(_classical_block, p=p, k_a=n_a)

    return _estimate(n_samples, seed, draw, histogram_bins)


# -- real quantum theory (not locally tomographic) ----------------------------------------


def predict_real_quantum(m_a: int, m_b: int, p0: float) -> Prediction:
    """The nonlocaltomo formula for two real-quantum systems, from their level counts.

    Real quantum theory on m levels has K = m(m+1)/2, and the joint on
    n = m_a m_b levels has K_AB = n(n+1)/2 > K_A K_B, so the composition is
    not locally tomographic.  Purity is (n Tr rho^2 - 1)/(n - 1) and Tr rho^2
    is multiplicative on products, so Tr (phi_A (x) mu_B)^2 = 1/m_b and
    P(phi_A (x) mu_B) = (m_a - 1)/(n - 1).  The joint maximally mixed state is
    the product mu_A (x) mu_B, so its locally inaccessible component vanishes:
    |mu_C|^2 = 0.
    """
    _check_levels("real-quantum", m_b, m_a)
    n = m_a * m_b
    return _nonlocaltomo(m_a * (m_a + 1) // 2, n * (n + 1) // 2, p0, (m_a - 1, n - 1), (0, 1))


def estimate_real_quantum_local_purity(
    m_a: int,
    m_b: int,
    p0: float,
    n_samples: int,
    seed: int,
    *,
    histogram_bins: int | None = HISTOGRAM_BINS,
) -> McReport:
    """Monte Carlo expected local purity in bipartite real quantum theory.

    States are real symmetric density matrices; the global group is
    conjugation by Haar-random orthogonal matrices on the joint space, which
    maps t |phi><phi| + (1-t) mu to t |psi><psi| + (1-t) mu for a uniformly
    random real unit vector psi.  The report is in generalized-purity units;
    convert with ``purity.tr2_from_purity`` for collision values.
    """
    _check_p0(p0)
    _check_levels("real-quantum", m_b, m_a)
    draw = partial(_haar_ket_block, t=math.sqrt(p0), dims=(m_a, m_b), real=True)
    return _estimate(n_samples, seed, draw, histogram_bins)
