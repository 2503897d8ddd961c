"""Group-invariant faces: constrained randomization inside a quantum subspace.

A face here is the set of states with full support on the symmetric or
antisymmetric subspace S of C^n (x) C^n, the two faces the paper's formula
extends to.  It carries a face-maximally-mixed state and a stabilizer
sampler: Haar unitaries on the subspace.  The coin recorded by an
environment (``coin_with_record``) is classical randomization of a free
2 x s0 joint, not a face.

Expected local collision value for a quantum face (``predict_qface``):

* 1/N_A + (N_A^2-1)/(N_S^2-1) * Tr[(pi (E_A (x) I) pi)^2] * (Tr rho_AB^2 - 1/N_S)

Its closed form, with Tr[(pi (E_A (x) I) pi)^2] = n/4 +- 1/2, needs no face:
it is ``formulas.predict_symm``, next to the face purity range and the
recorded coin's exact spread.

A face is its level count n and SWAP sign.  The estimator draws in-face kets
by index arithmetic (``randomize._swap_scatter``), so it holds no basis; the
isometry onto the subspace, its composite descriptor and joint coordinates
are built only when asked, and other layers are reached through module
aliases, so no face command runs a descriptor layer.
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
    check_memory,
)
from .formulas import Prediction, _check_purity_on_face, coin_record_sigma, predict_coin_record
from .randomize import (BLOCK_SIZE, McReport, _check_run, _classical_block, _estimate,
                        _haar_ket_block)


class FaceDescriptor(NamedTuple):
    """The symmetric (``sign`` +1) or antisymmetric (-1) subspace of C^n (x) C^n.

    It is preserved by matched local unitaries U (x) U, and ``sign`` is the
    eigenvalue of SWAP on it.
    """

    n: int
    sign: int

    @property
    def levels(self) -> tuple[int, int]:
        """The level counts (n_A, n_B) = (n, n) of the two parts."""
        return self.n, self.n

    @property
    def n_sub(self) -> int:
        """The subspace dimension N_S = n(n + sign)/2."""
        return self.n * (self.n + self.sign) // 2

    @property
    def isometry(self) -> np.ndarray:
        """The n^2 x N_S orthonormal columns V spanning the subspace, counted before they are built.

        Column k, for the k-th pair i <= j (i < j when antisymmetric), is |ii>
        or (|ij> + sign |ji>)/sqrt 2.
        """
        n, n_s = self.n, self.n_sub
        check_memory(8 * n * n * n_s, f"the isometry of a {n_s}-dimensional subspace of C^{n * n}")
        i, j = np.triu_indices(n, 0 if self.sign == 1 else 1)
        k = np.arange(n_s)
        v = np.zeros((n, n, n_s))
        v[i, j, k] = np.where(i == j, 1.0, math.sqrt(0.5))
        v[j, i, k] = self.sign * v[i, j, k]
        return v.reshape(n * n, n_s)

    @property
    def comp(self) -> comp_mod.CompositeDescriptor:
        """The composite descriptor of the two parts, built on each access."""
        return comp_mod.compose(ss.build_quantum(self.n), ss.build_quantum(self.n))

    @property
    def mu_face(self) -> np.ndarray:
        """The face-maximally-mixed state V V^dagger / N_S in joint coordinates."""
        v = self.isometry
        return self.comp.joint.to_coords(v @ v.T / self.n_sub)


def sym_face(n: int) -> FaceDescriptor:
    """States supported on the symmetric subspace of C^n (x) C^n; N_S = n(n+1)/2."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    return FaceDescriptor(n, 1)


def antisym_face(n: int) -> FaceDescriptor:
    """States supported on the antisymmetric subspace; N_S = n(n-1)/2."""
    if n == 1:
        raise EmptyFaceError("the antisymmetric subspace of one level is empty")
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    return FaceDescriptor(n, -1)


def face_bloch_projector(face: FaceDescriptor, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a traceless Hermitian matrix onto the face span.

    pi M pi - pi Tr(pi M pi) / Tr(pi) for pi = V V^dagger; idempotent and self-adjoint
    with respect to the invariant inner product on the joint Bloch space.
    """
    v = face.isometry
    pi = v @ v.T
    pmp = pi @ np.asarray(m) @ pi
    return pmp - pi * (np.trace(pmp) / face.n_sub)


def predict_qface(face: FaceDescriptor, e_a: np.ndarray, tr_purity_global: float) -> Prediction:
    """Expected local collision value Tr(rho_A^2) for a quantum face.

    ``e_a`` probes the local action; it must be an n_A x n_A Hermitian matrix
    with Tr E_A = 0 and Tr E_A^2 = 1, and for an irreducible local action the
    result does not depend on the choice.  The ingredient
    Tr[(pi (E_A (x) I) pi)^2] is |V^dagger (E_A (x) I) V|_F^2.
    """
    e_a = np.asarray(e_a)
    n_a, n_b = face.levels
    if e_a.shape != (n_a, n_a) or not np.all(np.abs(e_a - e_a.conj().T) <= 1e-8):
        raise InvalidProbeError(f"probe must be a Hermitian {n_a} x {n_a} matrix")
    if not (abs(np.trace(e_a)) <= 1e-8 and abs(np.trace(e_a @ e_a) - 1.0) <= 1e-8):
        raise InvalidProbeError("probe must satisfy Tr E_A = 0 and Tr E_A^2 = 1")
    n_s = face.n_sub
    _check_purity_on_face(n_s, tr_purity_global)
    if n_s == 1:
        value = 1.0 / n_a
        ingredient = 0.0
    else:
        v = face.isometry
        # (E_A (x) I) V and V^dagger of it, complex at most.
        check_memory(16 * n_s * (n_a * n_b + n_s),
                     f"the probe's action on a {n_s}-dimensional face")
        probe = v.T @ (e_a @ v.reshape(n_a, -1)).reshape(v.shape)
        ingredient = float(np.vdot(probe, probe).real)
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


def _face_interpolation_weight(n_sub: int, target: float) -> float:
    _check_purity_on_face(n_sub, target)
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

    States of the requested global Tr(rho^2) interpolate a Haar-random
    in-face pure state with the face-maximally-mixed state, which is what a
    Haar unitary of the subspace makes of a fixed one (the stabilizer acts
    transitively on in-face pure states).  Targets are collision values with
    floor 1/N_S; the sample value is Tr(rho_A^2) and the realized global
    purity is reported in the same collision units.
    """
    t = _face_interpolation_weight(face.n_sub, target_global_purity)
    draw = partial(_haar_ket_block, t=t, dims=face.levels, swap=face.sign)
    return _estimate(n_samples, seed, draw, histogram_bins)


# -- coin tossing against a record-keeping environment --------------------------------------


class CoinRecordResult(NamedTuple):
    """Monte Carlo report and closed-form prediction for the record scenario.

    ``sigma`` is the exact per-sample standard deviation (``formulas.coin_record_sigma``).
    """

    report: McReport
    prediction: Prediction
    sigma: float


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

    The 2 s0_size support outcomes, coin value major, are the outcomes of a
    free 2 x s0_size classical joint and the permutations of the support are
    its reversible dynamics, so the classical kernel of ``randomize`` draws
    the samples.
    """
    if s0_size < 1:
        raise RangeError(f"the record set needs at least one string, got {s0_size}")
    _check_run(n_samples, seed)
    n_f = 2 * s0_size
    size = min(n_samples, BLOCK_SIZE)
    # The distribution, then the block and its A marginals that
    # ``_classical_block`` checks again once the distribution exists.
    check_memory(8 * (n_f + size * (n_f + 2)),
                 f"a 2 x {s0_size} classical joint distribution and a block of {size} "
                 "permutations of it")
    p_face = np.zeros(n_f)
    p_face[:s0_size] = 1.0 / s0_size
    report = _estimate(n_samples, seed, partial(_classical_block, p=p_face, k_a=2), None)
    return CoinRecordResult(report=report, prediction=predict_coin_record(s0_size),
                            sigma=coin_record_sigma(s0_size))
