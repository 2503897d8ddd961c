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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import composite as comp_mod
from . import grouprep
from . import statespace as ss
from .composite import CompositeDescriptor, partial_trace
from .errors import (
    EmptyFaceError,
    InvalidDimensionError,
    InvalidProbeError,
    RangeError,
    UnsupportedSpaceError,
)
from .randomize import (McReport, Prediction, _classical_purities, _estimate, _haar_ket_block,
                        _permuted_block)

KIND_QUANTUM_FACE = "quantum-subspace"
KIND_CLASSICAL_FACE = "classical-support"


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of a bipartite state space, preserved by matched local actions.

    ``projector`` / ``isometry`` describe the quantum subspace (the isometry
    columns span it); ``support`` lists the flat joint outcomes of a
    classical face.  ``n_sub`` is the subspace dimension N_S resp. the
    support size N_F, and ``k_face`` the face dimension (N_S^2 resp. N_F).
    ``mu_face`` is the face-maximally-mixed state in joint coordinates.
    """

    kind: str
    comp: CompositeDescriptor
    n_sub: int
    k_face: int
    mu_face: np.ndarray
    projector: np.ndarray | None = None
    isometry: np.ndarray | None = None
    support: np.ndarray | None = None


def subspace_face(comp: CompositeDescriptor, projector: np.ndarray) -> FaceDescriptor:
    """The face of states with full support on a joint Hilbert subspace."""
    w, v = np.linalg.eigh(projector)
    cols = v[:, w > 0.5]
    n_sub = cols.shape[1]
    if n_sub == 0:
        raise EmptyFaceError("the projector has rank zero")
    mu = comp.joint.to_coords(projector / n_sub)
    return FaceDescriptor(
        kind=KIND_QUANTUM_FACE,
        comp=comp,
        n_sub=n_sub,
        k_face=n_sub * n_sub,
        mu_face=mu,
        projector=np.asarray(projector, dtype=complex),
        isometry=cols,
    )


def sym_face(n: int) -> FaceDescriptor:
    """States supported on the symmetric subspace of C^n (x) C^n; N_S = n(n+1)/2."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    comp = comp_mod.compose(ss.build_quantum(n), ss.build_quantum(n))
    return subspace_face(comp, grouprep.symmetric_projector(n))


def antisym_face(n: int) -> FaceDescriptor:
    """States supported on the antisymmetric subspace; N_S = n(n-1)/2."""
    if n == 1:
        raise EmptyFaceError("the antisymmetric subspace of one level is empty")
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    comp = comp_mod.compose(ss.build_quantum(n), ss.build_quantum(n))
    return subspace_face(comp, grouprep.antisymmetric_projector(n))


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
    n_a = face.comp.part_a.level
    n_s = face.n_sub
    if not (1.0 / n_s) - 1e-12 <= tr_purity_global <= 1.0 + 1e-12:
        raise RangeError(f"Tr rho^2 on the face must lie in [1/{n_s}, 1]")
    if n_s == 1:
        value = 1.0 / n_a
        ingredient = 0.0
    else:
        probe = face.projector @ np.kron(e_a, np.eye(face.comp.part_b.level)) @ face.projector
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
    if not 1.0 / n_s - 1e-12 <= tr_purity_global <= 1.0 + 1e-12:
        raise RangeError(f"Tr rho^2 on the face must lie in [1/{n_s}, 1], got {tr_purity_global}")
    value = (1.0 + tr_purity_global) * (n + sign) / (n * n + sign * n + 2)
    return Prediction(
        value=value,
        formula_id="symm",
        inputs={"n": n, "sign": sign, "tr_purity_global": tr_purity_global},
    )


def _face_interpolation_weight(n_sub: int, target: float) -> float:
    lo = 1.0 / n_sub
    if not lo - 1e-12 <= target <= 1.0 + 1e-12:
        raise RangeError(
            f"target global purity {target} is outside [{lo}, 1] for this face"
        )
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
        dims = (face.comp.part_a.level, face.comp.part_b.level)
        sigma_a = partial_trace(face.projector, dims, keep=0) / face.n_sub
        draw = partial(_haar_ket_block, t=t, dims=dims, isometry=face.isometry, sigma_a=sigma_a)
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

    Support outcome s = a K_B + b adds to the A marginal at a (``np.add.at``).
    """
    na = face.comp.part_a.K
    omega0 = np.zeros(face.comp.joint.K)
    omega0[face.support] = p_face
    purity = face_restricted_purity(face, omega0)
    to_a = face.support // face.comp.part_b.K

    def draw(rng, size):
        block = _permuted_block(rng, size, p_face, na)
        marg = np.zeros((size, na))
        np.add.at(marg, (slice(None), to_a), block)
        return _classical_purities(marg), purity

    return _estimate(n_samples, seed, draw, histogram_bins)


# -- coin tossing against a record-keeping environment --------------------------------------


@dataclass(frozen=True)
class CoinRecordResult:
    """Monte Carlo report and face-restricted prediction for the record scenario.

    ``sigma`` is the exact per-sample standard deviation (``coin_record_sigma``).
    """

    report: McReport
    prediction: Prediction
    sigma: float


def classical_support_face(
    comp: CompositeDescriptor, support: np.ndarray
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
    n_f = len(support)
    mu = np.zeros(comp.joint.K)
    mu[support] = 1.0 / n_f
    return FaceDescriptor(
        kind=KIND_CLASSICAL_FACE,
        comp=comp,
        n_sub=n_f,
        k_face=n_f,
        mu_face=mu,
        support=support,
    )


def face_restricted_purity(face: FaceDescriptor, omega: np.ndarray) -> float:
    """Purity of a face-supported distribution, treated as a state of the face."""
    if face.kind != KIND_CLASSICAL_FACE:
        raise UnsupportedSpaceError("face-restricted purity applies to classical faces")
    if face.n_sub == 1:
        return 1.0
    return float(_classical_purities(np.asarray(omega, dtype=float)[face.support]))


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
    n_b = 2 * s0_size
    comp = comp_mod.compose(ss.build_classical(2), ss.build_classical(n_b))
    support = np.concatenate(
        [np.arange(s0_size), n_b + s0_size + np.arange(s0_size)]
    )
    face = classical_support_face(comp, support)
    p_face = np.zeros(face.n_sub)
    p_face[:s0_size] = 1.0 / s0_size
    report = _estimate_support_face(face, p_face, n_samples, seed, None)
    prediction = Prediction(
        value=1.0 / (2 * s0_size - 1),
        formula_id="class-face",
        inputs={"s0_size": s0_size},
    )
    return CoinRecordResult(report=report, prediction=prediction,
                            sigma=coin_record_sigma(s0_size))
