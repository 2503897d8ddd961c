"""Exact predictions: the closed forms, from level counts, with no numpy.

The expected local purity after global randomization depends only on the
number of degrees of freedom K and the information capacity N of each part,
so every closed form here is integer and float arithmetic:

* main:        (K_A-1)/(K_A K_B-1) * (N_A N_B-1)/(N_A-1) * P0
* general:     (K_A-1)/(K_A K_B-1) * P0 / P(phi_A (x) mu_B)
* power-law:   main with K = N^r on both parts
* nonlocaltomo (K_A-1)/(K_AB-1) * P0 / (P(phi_A (x) mu_B) - |mu_C|^2),
  for compositions that are not locally tomographic (real quantum theory).
* symm:        (1 + Tr rho^2) (n +- 1) / (n^2 +- n + 2), the expected
  Tr(rho_A^2) on the (anti)symmetric subspace of C^n (x) C^n.
* qface:       1/N_A + (N_A^2-1)/(N_S^2-1) * Tr[(pi (E_A (x) I) pi)^2]
  * (Tr rho^2 - 1/N_S), the same expectation with its ingredient summed over
  the face's pair indices, not taken from n/4 +- 1/2.
* coin-record: 1/(2 s0 - 1), a coin tossed against a recording environment.

``main``, ``general``, ``power-law`` and ``nonlocaltomo`` are each one
integer true division, of the level counts and the exact ratio of the float
P0, so each value is correctly rounded.  ``coin_record_sigma`` is the exact
per-sample spread of the recorded coin's purity.

This module uses no other layer of the package but ``errors``, so a command
that only predicts never imports numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    EmptyFaceError,
    InvalidDimensionError,
    RangeError,
    UnsupportedSpaceError,
    check_memory,
    check_work,
)

# The level-count theories, each with K(n), the degrees of freedom of one
# system on n levels; a joint of n_A n_B levels has K_AB = K(n_A n_B).
QUANTUM = "quantum"
CLASSICAL = "classical"
REAL_QUANTUM = "real-quantum"
_DEGREES_OF_FREEDOM = {
    QUANTUM: lambda n: n * n,
    CLASSICAL: lambda n: n,
    REAL_QUANTUM: lambda n: n * (n + 1) // 2,
}


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


def _main_value(k_a: int, k_ab: int, n_a: int, n_ab: int, p0: float) -> float:
    """(K_A-1)/(K_AB-1) * (N_AB-1)/(N_A-1) * P0, exact in integers and rounded once."""
    num, den = p0.as_integer_ratio()
    return (k_a - 1) * (n_ab - 1) * num / ((k_ab - 1) * (n_a - 1) * den)


def predict_main(k_a: int, k_b: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """Expected local purity for composites with a composite classical subsystem."""
    for k, n, side in ((k_a, n_a, "A"), (k_b, n_b, "B")):
        if not k >= n >= 2:
            raise RangeError(f"need K >= N >= 2 on part {side}, got K={k}, N={n}")
    _check_p0(p0)
    return Prediction(
        value=_main_value(k_a, k_a * k_b, n_a, n_a * n_b, p0),
        formula_id="main",
        inputs={"K_A": k_a, "K_B": k_b, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def _check_levels(theory: str, n_a: int, n_b: int) -> None:
    """Refuse a theory without a level-count table, then a part of fewer than two levels."""
    if theory not in _DEGREES_OF_FREEDOM:
        raise UnsupportedSpaceError(f"no level-count composite for theory {theory!r}")
    for n in (n_a, n_b):
        if n < 2:
            raise InvalidDimensionError(f"{theory} level count must be >= 2, got {n}")


def predict_general(theory: str, n_a: int, n_b: int, p0: float) -> Prediction:
    """Expected local purity of two parts of one level-count theory, from their level counts.

    Every such theory has a composite classical subsystem, so
    P(phi_A (x) mu_B) = (N_A-1)/(N_A N_B-1), and its joint maximally mixed
    state is mu_A (x) mu_B, so |mu_C|^2 = 0: no descriptor or Gram is
    built.  Quantum and classical parts are locally tomographic,
    K_AB = K_A K_B, and report the ``general`` formula; real quantum theory
    has K_AB > K_A K_B and reports the ``nonlocaltomo`` one.  Both are
    (K_A-1)/(K_AB-1) * P0 / P(phi_A (x) mu_B), one integer true division.
    """
    _check_levels(theory, n_a, n_b)
    _check_p0(p0)
    k_of, n_ab = _DEGREES_OF_FREEDOM[theory], n_a * n_b
    k_a, k_b, k_ab = k_of(n_a), k_of(n_b), k_of(n_ab)
    value = _main_value(k_a, k_ab, n_a, n_ab, p0)
    p_phi_mu = (n_a - 1) / (n_ab - 1)
    if k_ab == k_a * k_b:
        return Prediction(value=value, formula_id="general",
                          inputs={"K_A": k_a, "K_B": k_b, "P0": p0, "P_phi_mu": p_phi_mu})
    return Prediction(value=value, formula_id="nonlocaltomo",
                      inputs={"K_A": k_a, "K_AB": k_ab, "P0": p0, "P_phi_mu": p_phi_mu,
                              "mu_C_norm_sq": 0.0})


def predict_power_law(r: int, n_a: int, n_b: int, p0: float) -> Prediction:
    """The main formula in a theory class with K = N^r on both parts.

    r = 1 reduces to the classical cancellation, r = 2 to quantum theory.
    The exact value scales like N_B^(1-r) for a large second party.  Its
    integers have up to r log2(N_A N_B) bits, too many for a rational's gcd,
    but like ``main`` it is one correctly rounded integer true division.
    """
    if r < 1 or int(r) != r:
        raise RangeError(f"power-law exponent must be a positive integer, got {r}")
    for n, side in ((n_a, "A"), (n_b, "B")):
        if n < 2:
            raise RangeError(f"need N >= 2 on part {side}, got N={n}")
    _check_p0(p0)
    # K_A K_B = (N_A N_B)^r is exact and has r log2(N_A N_B) bits.  K_A, K_B,
    # the product and the temporaries of the powers and of the division hold
    # up to about 7.7 integers of that size (tracemalloc), so eight are counted.
    check_memory(8 * math.ceil(r * math.log2(n_a * n_b) / 8),
                 f"the exact K_A = {n_a}^{r}, K_B = {n_b}^{r} and their product")
    return Prediction(
        value=_main_value(n_a**r, n_a**r * n_b**r, n_a, n_a * n_b, p0),
        formula_id="power-law",
        inputs={"r": r, "N_A": n_a, "N_B": n_b, "P0": p0},
    )


def predict_symm(n: int, sign: int, tr_purity_global: float) -> Prediction:
    """Expected Tr(rho_A^2) on the (anti)symmetric subspace of C^n (x) C^n.

    (1 + Tr rho^2) (n +- 1) / (n^2 +- n + 2); for pure global states the
    numerator factor is 2.
    """
    _check_face(n, sign)
    n_s = n * (n + sign) // 2
    _check_purity_on_face(n_s, tr_purity_global)
    value = (1.0 + tr_purity_global) * (n + sign) / (n * n + sign * n + 2)
    return Prediction(
        value=value,
        formula_id="symm",
        inputs={"n": n, "sign": sign, "tr_purity_global": tr_purity_global},
    )


def _check_purity_on_face(n_sub: int, tr_purity: float) -> None:
    """Refuse a global Tr(rho^2) outside [1/N_S, 1], the range on a face of dimension N_S."""
    if not 1.0 / n_sub - 1e-12 <= tr_purity <= 1.0 + 1e-12:
        raise RangeError(f"Tr rho^2 on a face of dimension {n_sub} must lie in "
                         f"[1/{n_sub}, 1], got {tr_purity}")


def _check_face(n: int, sign: int) -> None:
    """Refuse an (anti)symmetric face of C^n (x) C^n that has no states or fewer than two levels."""
    if sign not in (1, -1):
        raise RangeError(f"sign must be +1 or -1, got {sign}")
    if sign == -1 and n == 1:
        raise EmptyFaceError("the antisymmetric subspace of one level is empty")
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")


def _probe_trace_sq(n: int, sign: int) -> float:
    """Tr[(pi (E_A (x) I) pi)^2] for E_A = e (|1><1| - |2><2|), e = 1/sqrt 2, by index sums.

    It is sum_k |pi (E_A (x) I) c_k|^2 over the face's columns c_k, |ii> or
    (|ij> + sign |ji>)/sqrt 2 for a pair i <= j (i < j when antisymmetric),
    with pi = (I + sign SWAP)/2.  Only a column with i or j in {1, 2} adds:
    |11> and |22> add e^2 each on the symmetric face, the pair {1, 2} adds 0,
    and each pair {1, j} or {2, j}, j >= 3, adds (e/sqrt 2)^2 / 2.  Those of
    1 come first, then those of 2, each in the order of j.
    """
    e = 1.0 / math.sqrt(2)
    v = math.sqrt(0.5) * e
    total = 0.0
    for _ in range(2):
        if sign == 1:
            total += e * e
        for _ in range(2, n):
            total += v * v / 2
    return total


def predict_qface(n: int, sign: int, tr_purity_global: float) -> Prediction:
    """Expected local collision value Tr(rho_A^2) for a quantum face, by index sums.

    The face is the symmetric (``sign`` +1) or antisymmetric (-1) subspace of
    C^n (x) C^n, of dimension N_S = n(n + sign)/2.  The local action is
    irreducible, so the ingredient Tr[(pi (E_A (x) I) pi)^2] is the same for
    every traceless Hermitian E_A with Tr E_A^2 = 1; it is summed for one
    (``_probe_trace_sq``), 2n terms at most, counted against the work cap first.
    """
    _check_face(n, sign)
    n_s = n * (n + sign) // 2
    _check_purity_on_face(n_s, tr_purity_global)
    if n_s == 1:
        value, ingredient = 1.0 / n, 0.0
    else:
        check_work(2 * (n if sign == 1 else n - 1),
                   f"the probe's action on a {n_s}-dimensional face")
        ingredient = _probe_trace_sq(n, sign)
        value = 1.0 / n + (n**2 - 1) / (n_s**2 - 1) * ingredient * (tr_purity_global - 1.0 / n_s)
    return Prediction(value=value, formula_id="qface",
                      inputs={"N_A": n, "N_S": n_s, "tr_purity_global": tr_purity_global,
                              "probe_trace_sq": ingredient})


def _check_record(s0_size: int) -> None:
    """Refuse a recorded coin whose record set holds no string."""
    if s0_size < 1:
        raise RangeError(f"the record set needs at least one string, got {s0_size}")


def predict_coin_record(s0_size: int) -> Prediction:
    """Expected purity of a coin tossed against an environment recording it in s0 strings.

    1/(2 s0 - 1): the record randomizes like a free environment of half its size.
    """
    _check_record(s0_size)
    return Prediction(value=1.0 / (2 * s0_size - 1), formula_id="class-face",
                      inputs={"s0_size": s0_size})


def coin_record_sigma(s0_size: int) -> float:
    """Exact standard deviation of one sample of the recorded coin's purity.

    A sample is (2k/s0 - 1)^2, where k ~ Hypergeometric(2 s0, s0, s0) counts
    the occupied strings that land on coin value 0.  Its mean is 1/(2 s0 - 1)
    and, from the hypergeometric fourth central moment, its variance is
    4 (s0 - 1)^2 / (s0 (2 s0 - 3) (2 s0 - 1)^2): zero only for s0 = 1, where
    every sample is exact.
    """
    _check_record(s0_size)
    if s0_size == 1:
        return 0.0
    s = s0_size
    return math.sqrt(4.0 * (s - 1) ** 2 / (s * (2 * s - 3) * (2 * s - 1) ** 2))
