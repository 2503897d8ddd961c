"""Group-invariant faces: constrained randomization inside a face.

A face here is either a quantum subspace face (states with full support on a
subspace S of the joint Hilbert space, e.g. the symmetric or antisymmetric
subspace of C^n (x) C^n) or a classical support face (distributions supported
on a subset of joint outcomes).  Both carry a face-maximally-mixed state and
a stabilizer sampler: Haar unitaries on the subspace for quantum faces,
permutations of the support for classical faces.

Expected local collision values for quantum faces:

* subspace face: 1/N_A + (N_A^2-1)/(N_S^2-1) * Tr[(pi (E_A (x) I) pi)^2]
                 * (Tr rho_AB^2 - 1/N_S)
* (anti)symmetric specialization: (1 + Tr rho^2) (n +- 1) / (n^2 +- n + 2),
  where Tr[(pi (E_A (x) I) pi)^2] = n/4 +- 1/2.

A face holds the level counts of its two parts.  Its composite descriptor and
joint coordinates are derived only when asked, and other layers are reached
through module aliases, so the (anti)symmetric faces and the coin record run
no descriptor layer.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import composite as comp_mod
from . import statespace as ss
from .errors import (
    EmptyFaceError,
    InvalidDimensionError,
    InvalidProbeError,
    RangeError,
    UnsupportedSpaceError,
    check_memory,
)
from .randomize import (BLOCK_SIZE, McReport, Prediction, _check_run, _classical_purities,
                        _estimate, _haar_ket_block, _permuted_block)

KIND_QUANTUM_FACE = "quantum-subspace"
KIND_CLASSICAL_FACE = "classical-support"


class FaceDescriptor(NamedTuple):
    """A face of a bipartite state space, preserved by matched local actions.

    ``levels`` are the level counts (n_A, n_B) of the two parts: quantum
    levels for a subspace face, classical outcomes for a support face.
    ``projector`` / ``isometry`` describe the quantum subspace (the isometry
    columns span it); ``support`` lists the flat joint outcomes of a
    classical face.  ``n_sub`` is the subspace dimension N_S resp. the
    support size N_F, and ``k_face`` the face dimension (N_S^2 resp. N_F).
    """

    kind: str
    levels: tuple[int, int]
    n_sub: int
    k_face: int
    projector: np.ndarray | None = None
    isometry: np.ndarray | None = None
    support: np.ndarray | None = None

    @property
    def comp(self) -> comp_mod.CompositeDescriptor:
        """The composite descriptor of the two parts, built on each access."""
        build = ss.build_quantum if self.kind == KIND_QUANTUM_FACE else ss.build_classical
        return comp_mod.compose(build(self.levels[0]), build(self.levels[1]))

    @property
    def mu_face(self) -> np.ndarray:
        """The face-maximally-mixed state in joint coordinates."""
        if self.kind == KIND_QUANTUM_FACE:
            return self.comp.joint.to_coords(self.projector / self.n_sub)
        mu = np.zeros(self.levels[0] * self.levels[1])
        mu[self.support] = 1.0 / self.n_sub
        return mu


def subspace_face(comp: comp_mod.CompositeDescriptor, projector: np.ndarray) -> FaceDescriptor:
    """The face of states with full support on a joint Hilbert subspace."""
    if comp.kind != ss.KIND_QUANTUM:
        raise UnsupportedSpaceError("subspace faces require a quantum composite")
    return _subspace_face((comp.part_a.level, comp.part_b.level), projector)


def _subspace_face(levels: tuple[int, int], projector: np.ndarray) -> FaceDescriptor:
    w, v = np.linalg.eigh(projector)
    cols = v[:, w > 0.5]
    n_sub = cols.shape[1]
    if n_sub == 0:
        raise EmptyFaceError("the projector has rank zero")
    return FaceDescriptor(
        kind=KIND_QUANTUM_FACE,
        levels=levels,
        n_sub=n_sub,
        k_face=n_sub * n_sub,
        projector=np.asarray(projector, dtype=complex),
        isometry=cols,
    )


def symmetric_projector(n: int) -> np.ndarray:
    """(I + SWAP)/2, the projector onto the symmetric subspace of C^n (x) C^n."""
    return _swap_projector(n, 1)


def antisymmetric_projector(n: int) -> np.ndarray:
    """(I - SWAP)/2, the projector onto the antisymmetric subspace of C^n (x) C^n."""
    return _swap_projector(n, -1)


def _swap_projector(n: int, sign: int) -> np.ndarray:
    """(I + sign SWAP)/2 as one real array: SWAP maps |i j> (index n i + j) to |j i>."""
    d = n * n
    p = np.zeros((d, d))
    flat = np.arange(d)
    i, j = np.divmod(flat, n)
    p[flat, flat] = 0.5
    p[flat, n * j + i] += 0.5 * sign
    return p


def _swap_face(n: int, sign: int) -> FaceDescriptor:
    """The face on the (anti)symmetric subspace of C^n (x) C^n, counted before it is built."""
    d, n_s = n * n, n * (n + sign) // 2
    # At the peak, 5 d^2 reals: the real projector, and inside eigh its copy,
    # its workspace (2 d^2) and the eigenvectors (after eigh, the complex
    # projector the face keeps takes 2 d^2).  One d^2 more is slack for the
    # index arrays and the allocator; then the d x n_s isometry.
    check_memory(8 * d * (6 * d + n_s),
                 f"the projector onto a {n_s}-dimensional subspace of C^{d}, "
                 "its eigendecomposition and isometry")
    return _subspace_face((n, n), _swap_projector(n, sign))


def sym_face(n: int) -> FaceDescriptor:
    """States supported on the symmetric subspace of C^n (x) C^n; N_S = n(n+1)/2."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    return _swap_face(n, 1)


def antisym_face(n: int) -> FaceDescriptor:
    """States supported on the antisymmetric subspace; N_S = n(n-1)/2."""
    if n == 1:
        raise EmptyFaceError("the antisymmetric subspace of one level is empty")
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    return _swap_face(n, -1)


def face_bloch_projector(face: FaceDescriptor, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a traceless Hermitian matrix onto the face span.

    pi M pi - pi Tr(pi M pi) / Tr(pi); idempotent and self-adjoint with
    respect to the invariant inner product on the joint Bloch space.
    """
    if face.kind != KIND_QUANTUM_FACE:
        raise UnsupportedSpaceError("the Bloch projector formula applies to quantum faces")
    pi = face.projector
    pmp = pi @ np.asarray(m) @ pi
    return pmp - pi * (np.trace(pmp) / np.trace(pi))


def predict_qface(face: FaceDescriptor, e_a: np.ndarray, tr_purity_global: float) -> Prediction:
    """Expected local collision value Tr(rho_A^2) for a quantum face.

    ``e_a`` probes the local action; it must be Hermitian with Tr E_A = 0 and
    Tr E_A^2 = 1, and for an irreducible local action the result does not
    depend on the choice.
    """
    if face.kind != KIND_QUANTUM_FACE:
        raise UnsupportedSpaceError("predict_qface applies to quantum faces")
    e_a = np.asarray(e_a)
    if abs(np.trace(e_a)) > 1e-8 or abs(np.trace(e_a @ e_a) - 1.0) > 1e-8:
        raise InvalidProbeError("probe must satisfy Tr E_A = 0 and Tr E_A^2 = 1")
    n_a, n_b = face.levels
    n_s = face.n_sub
    _check_face_purity(n_s, tr_purity_global)
    if n_s == 1:
        value = 1.0 / n_a
        ingredient = 0.0
    else:
        probe = face.projector @ np.kron(e_a, np.eye(n_b)) @ face.projector
        ingredient = float(np.real(np.trace(probe @ probe)))
        value = 1.0 / n_a + (n_a**2 - 1) / (n_s**2 - 1) * ingredient * (
            tr_purity_global - 1.0 / n_s
        )
    return Prediction(
        value=value,
        formula_id="qface",
        inputs={
            "N_A": n_a,
            "N_S": n_s,
            "tr_purity_global": tr_purity_global,
            "probe_trace_sq": ingredient,
        },
    )


def default_probe(n: int) -> np.ndarray:
    """(|1><1| - |2><2|) / sqrt(2): the simplest valid probe."""
    e = np.zeros((n, n))
    e[0, 0] = 1.0 / math.sqrt(2)
    e[1, 1] = -1.0 / math.sqrt(2)
    return e


def predict_symm(n: int, sign: int, tr_purity_global: float) -> Prediction:
    """Expected Tr(rho_A^2) on the (anti)symmetric subspace of C^n (x) C^n.

    (1 + Tr rho^2) (n +- 1) / (n^2 +- n + 2); for pure global states the
    numerator factor is 2.
    """
    if sign not in (1, -1):
        raise RangeError(f"sign must be +1 or -1, got {sign}")
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    n_s = n * (n + sign) // 2
    _check_face_purity(n_s, tr_purity_global)
    value = (1.0 + tr_purity_global) * (n + sign) / (n * n + sign * n + 2)
    return Prediction(
        value=value,
        formula_id="symm",
        inputs={"n": n, "sign": sign, "tr_purity_global": tr_purity_global},
    )


def _check_face_purity(n_sub: int, tr_purity: float) -> None:
    """Refuse a global Tr(rho^2) outside [1/N_S, 1], the range on a face of dimension N_S."""
    if not 1.0 / n_sub - 1e-12 <= tr_purity <= 1.0 + 1e-12:
        raise RangeError(f"Tr rho^2 on a face of dimension {n_sub} must lie in "
                         f"[1/{n_sub}, 1], got {tr_purity}")


def _face_interpolation_weight(n_sub: int, target: float) -> float:
    _check_face_purity(n_sub, target)
    lo = 1.0 / n_sub
    if n_sub == 1:
        return 0.0
    return math.sqrt(max(target - lo, 0.0) / (1.0 - lo))


def estimate_face_local_purity(
    face: FaceDescriptor,
    target_global_purity: float,
    n_samples: int,
    seed: int,
    *,
    histogram_bins: int | None = None,
) -> McReport:
    """Monte Carlo expected local purity over face-constrained random states.

    Quantum faces: states of the requested global Tr(rho^2) interpolate a
    Haar-random in-face pure state with the face-maximally-mixed state,
    which is what a Haar unitary of the subspace makes of a fixed one (the
    stabilizer acts transitively on in-face pure states); the sample value
    is Tr(rho_A^2) and the realized global purity is reported in the same
    collision units.  Classical faces: the target and samples are
    face-restricted generalized purities, and the stabilizer is the
    permutation group of the support.
    """
    if face.kind == KIND_QUANTUM_FACE:
        # Quantum targets are collision values with floor 1/N_S.
        t = _face_interpolation_weight(face.n_sub, target_global_purity)
        na, nb = face.levels
        # The A marginal of mu: composite.partial_trace's contraction over B.
        sigma_a = np.einsum("ibjb->ij", face.projector.reshape(na, nb, na, nb)) / face.n_sub
        draw = partial(_haar_ket_block, t=t, dims=(na, nb), isometry=face.isometry,
                       sigma_a=sigma_a)
        return _estimate(n_samples, seed, draw, histogram_bins)

    if face.kind == KIND_CLASSICAL_FACE:
        # Classical targets are face-restricted generalized purities in [0, 1].
        if not 0.0 <= target_global_purity <= 1.0 + 1e-12:
            raise RangeError(
                f"face purity must lie in [0, 1], got {target_global_purity}"
            )
        t = math.sqrt(min(target_global_purity, 1.0))
        p_face = np.full(face.n_sub, (1.0 - t) / face.n_sub)
        p_face[0] += t
        return _estimate_support_face(face, p_face, n_samples, seed, histogram_bins)

    raise UnsupportedSpaceError(f"unsupported face kind {face.kind!r}")


def _estimate_support_face(
    face: FaceDescriptor,
    p_face: np.ndarray,
    n_samples: int,
    seed: int,
    histogram_bins: int | None,
) -> McReport:
    """Marginal purity on A of uniform permutations of ``p_face`` over the face support.

    Support outcome s = a K_B + b adds to the A marginal at a.  The support
    and ``p_face`` are ordered by A outcome once (stably; the law of a uniform
    permutation does not change), so each block's runs of equal outcomes are
    summed in place by one ``np.add.reduceat``.
    """
    na, nb = face.levels
    purity = _face_purity(face.n_sub, p_face)
    order = np.argsort(face.support // nb, kind="stable")
    to_a = face.support[order] // nb
    p = p_face[order]
    runs = np.flatnonzero(np.diff(to_a, prepend=-1))
    outcomes = to_a[runs]

    def draw(rng, size):
        block = _permuted_block(rng, size, p, na)
        marg = np.zeros((size, na))
        marg[:, outcomes] = np.add.reduceat(block, runs, axis=1)
        return _classical_purities(marg), purity

    return _estimate(n_samples, seed, draw, histogram_bins)


# -- coin tossing against a record-keeping environment --------------------------------------


class CoinRecordResult(NamedTuple):
    """Monte Carlo report and face-restricted prediction for the record scenario.

    ``sigma`` is the exact per-sample standard deviation (``coin_record_sigma``).
    """

    report: McReport
    prediction: Prediction
    sigma: float


def classical_support_face(
    comp: comp_mod.CompositeDescriptor, support: np.ndarray
) -> FaceDescriptor:
    """The face of a classical composite supported on the given joint outcomes."""
    if comp.kind != ss.KIND_CLASSICAL:
        raise UnsupportedSpaceError("support faces require a classical composite")
    support = np.asarray(support, dtype=int)
    ordered = np.sort(support)
    if len(support) == 0 or np.any(ordered[1:] == ordered[:-1]):
        raise RangeError("the support must be a nonempty set of distinct outcomes")
    if support.min() < 0 or support.max() >= comp.joint.K:
        raise RangeError("support indices must address joint outcomes")
    return _support_face((comp.part_a.level, comp.part_b.level), support)


def _support_face(levels: tuple[int, int], support: np.ndarray) -> FaceDescriptor:
    n_f = len(support)
    return FaceDescriptor(kind=KIND_CLASSICAL_FACE, levels=levels, n_sub=n_f, k_face=n_f,
                          support=support)


def face_restricted_purity(face: FaceDescriptor, omega: np.ndarray) -> float:
    """Purity of a face-supported distribution, treated as a state of the face."""
    if face.kind != KIND_CLASSICAL_FACE:
        raise UnsupportedSpaceError("face-restricted purity applies to classical faces")
    return _face_purity(face.n_sub, np.asarray(omega, dtype=float)[face.support])


def _face_purity(n_f: int, p: np.ndarray) -> float:
    """Purity of the distribution ``p`` over an ``n_f``-outcome support."""
    if n_f == 1:
        return 1.0
    return float(_classical_purities(np.array(p, dtype=float)))


def coin_record_sigma(s0_size: int) -> float:
    """Exact standard deviation of one sample of the recorded coin's purity.

    A sample is (2k/s0 - 1)^2, where k ~ Hypergeometric(2 s0, s0, s0) counts
    the occupied strings that land on coin value 0.  Its mean is 1/(2 s0 - 1)
    and, from the hypergeometric fourth central moment, its variance is
    4 (s0 - 1)^2 / (s0 (2 s0 - 3) (2 s0 - 1)^2): zero only for s0 = 1, where
    every sample is exact.
    """
    if s0_size == 1:
        return 0.0
    s = s0_size
    return math.sqrt(4.0 * (s - 1) ** 2 / (s * (2 * s - 3) * (2 * s - 1) ** 2))


def coin_with_record(
    s0_size: int,
    n_samples: int,
    seed: int,
) -> CoinRecordResult:
    """Toss a known coin against an environment that records its value.

    The environment has 2 * s0_size configurations; strings in S_0 accompany
    coin value 0 and the rest accompany value 1, so the joint support is the
    face {0 s_0} union {1 s_1}.  The initial state is the pure coin times the
    uniform mixture over S_0, and the dynamics are uniform permutations of
    the support.  The expected marginal coin purity is 1/(2 s0_size - 1):
    the recording environment randomizes like an unconstrained one of half
    its size.
    """
    if s0_size < 1:
        raise RangeError(f"the record set needs at least one string, got {s0_size}")
    _check_run(n_samples, seed)
    n_b = n_f = 2 * s0_size
    size = min(n_samples, BLOCK_SIZE)
    # Before the support exists: the index and value arrays over it, and one
    # block of permuted distributions with its A marginals.
    check_memory(8 * (8 * n_f + size * (n_f + 2)),
                 f"a {n_f}-outcome support face and a block of {size} permutations of it")
    face = _support_face((2, n_b), np.concatenate(
        [np.arange(s0_size), n_b + s0_size + np.arange(s0_size)]))
    p_face = np.zeros(n_f)
    p_face[:s0_size] = 1.0 / s0_size
    report = _estimate_support_face(face, p_face, n_samples, seed, None)
    prediction = Prediction(
        value=1.0 / (2 * s0_size - 1),
        formula_id="class-face",
        inputs={"s0_size": s0_size},
    )
    return CoinRecordResult(report=report, prediction=prediction,
                            sigma=coin_record_sigma(s0_size))
