"""Group-invariant faces: constrained randomization inside a quantum subspace.

A face here is the set of states with full support on the symmetric or
antisymmetric subspace S of C^n (x) C^n, the two faces the paper's formula
extends to.  It is given by its level count n and SWAP sign alone, the
arguments of its predictions, and its stabilizer acts transitively on its
pure states, so the estimator draws Haar-random in-face kets, written
into n x n matrices by index arithmetic (``blocks._ket_rows``), and
mixes them with the face-maximally-mixed state: no basis, isometry or
joint descriptor is built.  The coin recorded by an environment
(``coin_with_record``) is classical randomization of a free 2 x s0 joint,
not a face.

The face's predictions need no face: ``formulas.predict_symm`` is the closed
form (1 + Tr rho^2) (n +- 1) / (n^2 +- n + 2), and ``formulas.predict_qface``
takes its ingredient Tr[(pi (E_A (x) I) pi)^2] by index sums.  ``formulas``
also holds the face purity range and the recorded coin's record check and exact
spread.
"""

from __future__ import annotations

import math

from .blocks import _ket_draw, _permutation_draw
from .formulas import _check_face, _check_purity_on_face, _check_record
from .randomize import McReport, _estimate


def _face_interpolation_weight(n_sub: int, target: float) -> float:
    _check_purity_on_face(n_sub, target)
    lo = 1.0 / n_sub
    if n_sub == 1:
        return 0.0
    return math.sqrt(max(target - lo, 0.0) / (1.0 - lo))


def estimate_face_local_purity(
    n: int,
    sign: int,
    target_global_purity: float,
    n_samples: int,
    seed: int,
    *,
    histogram: bool = False,
) -> McReport:
    """Monte Carlo expected local purity over face-constrained random states.

    The face is the symmetric (``sign`` +1) or antisymmetric (-1) subspace
    of C^n (x) C^n, of dimension N_S = n(n + sign)/2, as in
    ``formulas.predict_symm``.  States of the requested global Tr(rho^2)
    interpolate a Haar-random in-face pure state with the
    face-maximally-mixed state, which is what a Haar unitary of the subspace
    makes of a fixed one (the stabilizer acts transitively on in-face pure
    states).  Targets are collision values with floor 1/N_S; the sample
    value is Tr(rho_A^2) and the realized global purity is reported in the
    same collision units.
    """
    _check_face(n, sign)
    t = _face_interpolation_weight(n * (n + sign) // 2, target_global_purity)
    return _estimate(n_samples, seed, *_ket_draw(t, (n, n), swap=sign), histogram)


# -- coin tossing against a record-keeping environment --------------------------------------


def coin_with_record(s0_size: int, n_samples: int, seed: int) -> McReport:
    """Toss a known coin against an environment that records its value.

    The environment has 2 * s0_size configurations; strings in S_0 accompany
    coin value 0 and the rest accompany value 1, so the joint support is the
    face {0 s_0} union {1 s_1}.  The initial state is the pure coin times the
    uniform mixture over S_0, and the dynamics are uniform permutations of
    the support.  The expected marginal coin purity is 1/(2 s0_size - 1)
    (``formulas.predict_coin_record``): the recording environment randomizes
    like an unconstrained one of half its size.

    The 2 s0_size support outcomes, coin value major, are the outcomes of a
    free 2 x s0_size classical joint and the permutations of the support are
    its reversible dynamics, so it draws through ``blocks._permutation_draw``
    as the classical estimate does.
    """
    _check_record(s0_size)
    draw = _permutation_draw(2 * s0_size, 2, 0.0, s0_size, 1.0 / s0_size,
                             f"a 2 x {s0_size} classical joint distribution")
    return _estimate(n_samples, seed, *draw, False)
