"""Randomization experiments: closed-form predictions and Monte Carlo checks.

The central experiment draws a global state of fixed purity, applies a
Haar-random reversible transformation, marginalizes to one party, and
averages the local purity.  Closed forms:

* main:        (K_A-1)/(K_A K_B-1) * (N_A N_B-1)/(N_A-1) * P0
* general:     (K_A-1)/(K_A K_B-1) * P0 / P(phi_A (x) mu_B)
* power-law:   main with K = N^r on both parts
* nonlocaltomo (K_A-1)/(K_AB-1) * P0 / (P(phi_A (x) mu_B) - |mu_C|^2),
  for compositions that are not locally tomographic (real quantum theory).

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
unitaries drawn with one stacked QR.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import composite as comp_mod
from . import grouprep
from . import statespace as ss
from .composite import CompositeDescriptor
from .errors import (
    DegenerateCompositeError,
    InternalError,
    InvalidDimensionError,
    RangeError,
    UndefinedRatioError,
)
from .purity import purity_from_tr2, tr2_from_purity
from .statespace import SpaceDescriptor

HISTOGRAM_BINS = 100
GLOBAL_PURITY_TOL = 1e-9
# Samples per random stream.  It bounds the kernels' working memory; a
# report depends on it, so changing it changes every Monte Carlo value.
BLOCK_SIZE = 1024


# -- predictions ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    """A closed-form expected local purity with its input echo."""

    value: float
    formula_id: str
    inputs: dict

    def to_json_dict(self) -> dict:
        return {"value": self.value, "formula_id": self.formula_id, "inputs": dict(self.inputs)}


def predict_main(k_a: int, k_b: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """Expected local purity for composites with a composite classical subsystem."""
    for k, n, side in ((k_a, n_a, "A"), (k_b, n_b, "B")):
        if not k >= n >= 2:
            raise RangeError(f"need K >= N >= 2 on part {side}, got K={k}, N={n}")
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")
    value = (k_a - 1) / (k_a * k_b - 1) * (n_a * n_b - 1) / (n_a - 1) * p0
    return Prediction(
        value=value,
        formula_id="main",
        inputs={"K_A": k_a, "K_B": k_b, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def predict_general(comp: CompositeDescriptor, p0: float) -> Prediction:
    """Expected local purity from P(phi_A (x) mu_B) in the joint's unique invariant Gram."""
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")
    phimu = comp_mod.purity_pure_times_maxmixed(comp, grouprep.analytic_gram(comp.joint))
    k_a, k_b = comp.part_a.K, comp.part_b.K
    value = (k_a - 1) / (k_a * k_b - 1) * p0 / phimu.numeric
    return Prediction(
        value=value,
        formula_id="general",
        inputs={
            "K_A": k_a,
            "K_B": k_b,
            "P0": p0,
            "P_phi_mu": phimu.numeric,
        },
    )


def predict_power_law(r: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """The main formula in a theory class with K = N^r on both parts.

    r = 1 reduces to the classical cancellation, r = 2 to quantum theory.
    The exact value scales like N_B^(1-r) for a large second party.
    """
    if r < 1 or int(r) != r:
        raise RangeError(f"power-law exponent must be a positive integer, got {r}")
    inner = predict_main(n_a**r, n_b**r, n_a, n_b, p0)
    return Prediction(
        value=inner.value,
        formula_id="power-law",
        inputs={"r": r, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def predict_nonlocaltomo(
    k_a: int, k_ab: int, p0: float, p_phi_mu: float, mu_c_norm_sq: float
) -> Prediction:
    """Expected local purity without local tomography.

    ``mu_c_norm_sq`` is the squared Gram norm of the locally inaccessible
    component of the joint maximally mixed state.
    """
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")
    denom = p_phi_mu - mu_c_norm_sq
    if denom <= 0:
        raise DegenerateCompositeError(
            f"P(phi (x) mu) - |mu_C|^2 = {denom!r} must be positive"
        )
    value = (k_a - 1) / (k_ab - 1) * p0 / denom
    return Prediction(
        value=value,
        formula_id="nonlocaltomo",
        inputs={
            "K_A": k_a,
            "K_AB": k_ab,
            "P0": p0,
            "P_phi_mu": p_phi_mu,
            "mu_C_norm_sq": mu_c_norm_sq,
        },
    )


# -- Monte Carlo reports -----------------------------------------------------------------


@dataclass(frozen=True)
class McReport:
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


def _estimate(n_samples: int, seed: int, draw: Callable, histogram_bins: int | None) -> McReport:
    """The one Monte Carlo loop: every estimator is a ``draw`` over its blocks.

    Block b holds samples [b BLOCK_SIZE, (b + 1) BLOCK_SIZE) and draws from
    ``sample_rng(seed, b)``; ``draw(rng, size)`` returns the block's sample
    values and global purities (an array or one number).  Reversible
    transformations preserve purity, so a spread of the global purities
    beyond ``GLOBAL_PURITY_TOL`` raises ``InternalError``.
    """
    if n_samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {n_samples}")
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    # The values, the global purities and one temporary of the reduction (the
    # deviations in ``std`` or the clipped values of the histogram).
    ss.check_memory(3 * 8 * n_samples, f"3 arrays of {n_samples} per-sample values")
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
    ss.check_memory((8 if real else 16) * size * (2 * na * nb + k * k),
                    f"2 blocks of {size} kets in dimension {na * nb} and their Grams")
    psi = ss.haar_kets(size, d, rng, real=real)
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
    ss.check_memory(4 * 16 * size * n * n, f"a block of {size} unitaries in dimension {n}")
    u = grouprep.haar_unitaries(size, n, rng)
    rho = (u @ phi) @ u.conj().transpose(0, 2, 1)
    tr_a2 = _tr_sq(comp_mod.partial_trace(rho, dims, keep=0))
    return purity_from_tr2(dims[0], tr_a2), purity_from_tr2(n, _tr_sq(rho))


def _permuted_block(rng: np.random.Generator, size: int, p: np.ndarray, k_a: int) -> np.ndarray:
    """``size`` uniformly random permutations of ``p``, one per row.

    The memory check also counts the (size, k_a) A marginal every caller forms.
    """
    ss.check_memory(8 * size * (p.size + k_a),
                    f"a block of {size} distributions on {p.size} outcomes and their marginals")
    omega = np.tile(p, (size, 1))
    return rng.permuted(omega, axis=1, out=omega)


def _tr_sq(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of a square matrix, or of each matrix in a (size, n, n) stack."""
    return np.einsum("...ij,...ji->...", rho, rho).real


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
    comp: CompositeDescriptor,
    p0: float,
    n_samples: int,
    seed: int,
    *,
    initial: np.ndarray | None = None,
    histogram_bins: int | None = HISTOGRAM_BINS,
) -> McReport:
    """Monte Carlo mean of the local purity after global randomization.

    Each sample builds a global state of purity ``p0`` (or starts from the
    fixed ``initial`` coordinates when given), applies a uniformly random
    reversible transformation of the joint space, and takes the purity of
    the A marginal.  Quantum samples without ``initial`` are
    t |psi><psi| + (1-t) mu for Haar-random kets psi, which has the same
    distribution; with ``initial`` a Haar unitary conjugates it.  Classical
    samples are uniform permutations of the joint distribution.

    No Gram is taken: each part's group acts irreducibly, so its invariant
    Gram is unique and every purity has a closed form, (n Tr rho^2 - 1)/(n - 1)
    for n quantum levels and n/(n-1) |x - 1/n|^2 for n classical outcomes.
    """
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")
    t = math.sqrt(p0)
    joint = comp.joint
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        ss.validate_state(joint, initial)
        got = grouprep.analytic_gram(joint).norm_sq(initial - joint.max_mixed)
        if abs(got - p0) > 1e-9:
            raise RangeError(
                f"the supplied initial state has purity {got!r}, requested {p0}"
            )

    if comp.kind == ss.KIND_QUANTUM:
        dims = (comp.part_a.level, comp.part_b.level)
        if initial is None:
            draw = partial(_haar_ket_block, t=t, dims=dims)
        else:
            draw = partial(_conjugated_block, phi=joint.to_matrix(initial), dims=dims)
    else:
        if initial is None:
            p = np.full(joint.K, (1.0 - t) / joint.K)
            p[0] += t
        else:
            p = initial
        draw = partial(_classical_block, p=p, k_a=comp.part_a.K)

    return _estimate(n_samples, seed, draw, histogram_bins)


# -- real quantum theory (not locally tomographic) ----------------------------------------


@dataclass(frozen=True)
class RealQuantumPair:
    """A real-quantum composition with the inputs of the nonlocaltomo formula."""

    part_a: SpaceDescriptor
    part_b: SpaceDescriptor
    joint: SpaceDescriptor
    k_a: int
    k_ab: int
    p_phi_mu: float
    mu_c_norm_sq: float


def real_quantum_pair(m_a: int, m_b: int) -> RealQuantumPair:
    """Compose two real-quantum systems and evaluate the formula inputs.

    The joint space is real quantum theory on m_a * m_b levels; its dimension
    exceeds K_A * K_B, so the composition is not locally tomographic.  Both
    P(phi_A (x) mu_B) and the locally inaccessible part of the joint
    maximally mixed state are computed numerically from the joint Gram.
    """
    # The joint first: an oversized pair is refused before either part is built.
    joint = ss.build_real_quantum(m_a * m_b)
    a = ss.build_real_quantum(m_a)
    b = ss.build_real_quantum(m_b)
    gram = grouprep.analytic_gram(joint)
    phi = np.zeros((m_a, m_a))
    phi[0, 0] = 1.0
    phimu_mat = np.kron(phi, np.eye(m_b) / m_b)
    phimu = joint.to_coords(phimu_mat) - joint.max_mixed
    p_phi_mu = gram.norm_sq(phimu)
    mu_c_mat = np.eye(m_a * m_b) / (m_a * m_b) - np.kron(np.eye(m_a) / m_a, np.eye(m_b) / m_b)
    mu_c = joint.to_coords(mu_c_mat)
    return RealQuantumPair(
        part_a=a,
        part_b=b,
        joint=joint,
        k_a=a.K,
        k_ab=joint.K,
        p_phi_mu=p_phi_mu,
        mu_c_norm_sq=gram.norm_sq(mu_c),
    )


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
    convert with ``tr2_from_purity`` for collision values.
    """
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"global purity must lie in [0, 1], got {p0}")
    for m in (m_b, m_a):
        if m < 2:
            raise InvalidDimensionError(f"real-quantum level count must be >= 2, got {m}")
    draw = partial(_haar_ket_block, t=math.sqrt(p0), dims=(m_a, m_b), real=True)
    return _estimate(n_samples, seed, draw, histogram_bins)


# -- qubit Pauli-coefficient oracle --------------------------------------------------------


@dataclass(frozen=True)
class QubitOracleResult:
    """Monte Carlo and closed-form sides of the qubit coefficient identity.

    The identity relates the expected local collision value on n_A qubits to
    the global one on n = n_A + n_B qubits:
    (E Tr rho_A^2 - 2^-n_A) / (Tr phi^2 - 2^-n) = 2^n_B (K_A-1)/(K_AB-1)
    with K_A = 4^n_A and K_AB = 4^n.
    """

    lhs: float
    lhs_stderr: float
    rhs: float
    mean_tr_a: float
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs,
            "mean_tr_a": self.mean_tr_a,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def qubit_pauli_oracle(
    n_a: int,
    n_b: int,
    global_tr_purity: float,
    n_samples: int,
    seed: int,
) -> QubitOracleResult:
    """Estimate the qubit-register coefficient ratio and its closed form."""
    if n_a < 1 or n_b < 1:
        raise RangeError("both registers need at least one qubit")
    n = n_a + n_b
    dim = 2**n
    dim_a = 2**n_a
    min_tr = 1.0 / dim
    if not min_tr <= global_tr_purity <= 1.0 + 1e-12:
        raise RangeError(
            f"Tr phi^2 must lie in [{min_tr}, 1], got {global_tr_purity}"
        )
    if abs(global_tr_purity - min_tr) < 1e-12:
        raise UndefinedRatioError("the ratio is undefined at the globally maximally mixed state")
    t = math.sqrt((global_tr_purity - min_tr) / (1.0 - min_tr))
    # The kernel gives local purities P_A; E Tr rho_A^2 - 1/n_A = (1 - 1/n_A) E P_A.
    report = _estimate(n_samples, seed, partial(_haar_ket_block, t=t, dims=(dim_a, 2**n_b)), None)
    per_purity = (1.0 - 1.0 / dim_a) / (global_tr_purity - min_tr)
    return QubitOracleResult(
        lhs=report.mean * per_purity,
        lhs_stderr=report.stderr * per_purity,
        rhs=2.0**n_b * (4.0**n_a - 1.0) / (4.0**n - 1.0),
        mean_tr_a=tr2_from_purity(dim_a, report.mean),
        n_samples=n_samples,
        seed=int(seed),
    )


# -- Markov tail bound ---------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovTailResult:
    """Empirical tail frequency P{P(omega_A) >= 1/x} against the bound x * mean."""

    x: float
    empirical: float
    bound: float
    binomial_sigma: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "empirical": self.empirical,
            "bound": self.bound,
            "binomial_sigma": self.binomial_sigma,
            "passed": self.passed,
        }


def markov_tail_check(report: McReport, x: float) -> MarkovTailResult:
    """Check the Markov inequality on a histogram-bearing report.

    The empirical tail is measured from the first histogram edge at or above
    1/x (which understates the true tail when 1/x falls inside a bin, keeping
    the check conservative); it must not exceed x * mean plus three binomial
    standard deviations.
    """
    if x <= 1.0:
        raise RangeError(f"the tail parameter must exceed 1, got {x}")
    if report.histogram_counts is None:
        raise RangeError("the report carries no histogram")
    edges = report.histogram_edges
    counts = report.histogram_counts
    cut = 1.0 / x
    tail = int(counts[np.asarray(edges[:-1]) >= cut - 1e-12].sum())
    emp = tail / report.n_samples
    sigma = math.sqrt(max(emp * (1.0 - emp), 0.0) / report.n_samples)
    bound = x * report.mean
    return MarkovTailResult(
        x=float(x),
        empirical=emp,
        bound=bound,
        binomial_sigma=sigma,
        passed=bool(emp <= bound + 3.0 * sigma),
    )
