"""The one- and two-qubit Clifford groups and the unitary 2-design identity.

Enumeration of the one- and two-qubit Clifford groups modulo global phase,
their traces (for two qubits from the factors, with no stacked group) and
their frame potential, which is 2 exactly for a unitary 2-design.  Every
complex product is formed from real and imaginary parts by elementwise real
steps and summed in a fixed order: no BLAS kernel, complex SIMD loop or fused
multiply-add sets the rounding, so the stacks have the same bytes under any
CPU dispatch.  This module reads no state space.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError, UnsupportedSpaceError

# Frontier elements expanded per stacked product in the Clifford closure; it
# bounds the product arrays, which no stored element is a view of.
_CLOSURE_CHUNK = 256


def _sum_of_products(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """sum_p x_p y_p over broadcast pairs of complex (or real) arrays, in order.

    Each term is (xr yr - xi yi) + i (xr yi + xi yr) by elementwise real
    steps, and the terms are added in the order given.  A real pair takes
    the one product x y, and a sum of real pairs only is returned as float64:
    the real part of the complex route, bit for bit.
    """
    re = im = 0.0
    for x, y in pairs:
        if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
            re = re + x * y
            continue
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
        re = re + (xr * yr - xi * yi)
        im = im + (xr * yi + xi * yr)
    if isinstance(im, float):
        return np.asarray(re, dtype=float)
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of two broadcast stacks of square matrices, summed over the
    inner index in order."""
    return _sum_of_products((a[..., :, l, None], b[..., None, l, :]) for l in range(a.shape[-1]))


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    """Multiply each unitary of a complex (..., d, d) stack, in place, by the phase
    that makes its first entry of modulus above 1e-9 real and positive; return ``u``.

    A unitary's first row has unit norm, so that entry lies in row 0.
    """
    re, im = u.real, u.imag
    row_re, row_im = re[..., 0, :], im[..., 0, :]
    at = np.argmax(row_re * row_re + row_im * row_im > 1e-18, axis=-1)[..., None]
    x = np.take_along_axis(row_re, at, axis=-1)[..., None]
    y = np.take_along_axis(row_im, at, axis=-1)[..., None]
    r = np.sqrt(x * x + y * y)
    c, s = x / r, y / r
    # (re + i im)(c - i s) = (re c + im s) + i (im c - re s).
    t = re * s
    re *= c
    re += im * s
    im *= c
    im -= t
    return u


def _keys(u: np.ndarray) -> list[bytes]:
    """The rounded-entry key of each entry of a stack: each (d, d) matrix, or each row."""
    raw = (np.round(u, 9) + 0.0).tobytes()
    step = len(raw) // len(u)
    return [raw[i:i + step] for i in range(0, len(raw), step)]


def _bfs_closure(generators: list[np.ndarray], expect: int) -> np.ndarray:
    """Breadth-first closure of the generated group modulo phase.

    Elements come in discovery order: level by level, and within a level by
    frontier element, then by generator.  Each chunk of the frontier is
    multiplied by every generator in one stacked product, and new elements
    are copied into one preallocated (expect, d, d) array, which is returned.
    """
    gens = np.stack(generators)
    d = gens.shape[1]
    out = np.empty((expect, d, d), dtype=complex)
    out[0] = np.eye(d)
    seen = set(_keys(out[:1]))
    lo, hi = 0, 1  # the current level is out[lo:hi]
    while lo < hi:
        n = hi
        for c in range(lo, hi, _CLOSURE_CHUNK):
            frontier = out[c:min(c + _CLOSURE_CHUNK, hi), None]
            prod = _phase_canonical(_product(gens[None], frontier)).reshape(-1, d, d)
            fresh = []
            for i, k in enumerate(_keys(prod)):
                if k not in seen:
                    seen.add(k)
                    fresh.append(i)
            if n + len(fresh) > expect:
                raise InternalError(f"group closure exceeded {expect} elements")
            out[n:n + len(fresh)] = prod[fresh]
            n += len(fresh)
        lo, hi = hi, n
    if hi != expect:
        raise InternalError(f"group closure produced {hi} elements, expected {expect}")
    return out


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker products a_i (x) b_j of two stacks of square matrices, i-major."""
    (m, p, _), (n, q, _) = a.shape, b.shape
    pair = (a[:, None, :, None, :, None], b[None, :, None, :, None, :])
    return _sum_of_products([pair]).reshape(m * n, p * q, p * q)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASE = np.diag([1, 1j])


def _two_qubit_factors() -> tuple[np.ndarray, np.ndarray]:
    """The one-qubit Clifford group and the 20 coset representatives of ``clifford_unitaries(2)``.

    C_2 / phase = (C_1 (x) C_1) {I, CNOT S, iSWAP S, SWAP},  S in S_1 (x) S_1,
    the four-class decomposition of two-qubit randomized benchmarking
    (Barends et al., Nature 508, 500, 2014), with S_1 = {I, SH, (SH)^2},
    whose conjugations cycle the Pauli axes.  Returns (C_1, reps) with reps
    a (20, 4, 4) stack.
    """
    sh = _product(_PHASE, _HADAMARD)
    s1 = np.stack([np.eye(2), sh, _product(sh, sh)])
    s11 = _kron_stack(s1, s1)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    swap = np.eye(4)[[0, 2, 1, 3]]
    return clifford_unitaries(1), np.concatenate([np.eye(4)[None], _product(cnot, s11),
                                                  _product(iswap, s11), swap[None]])


@lru_cache(maxsize=None)
def clifford_unitaries(k: int = 1) -> np.ndarray:
    """The k-qubit Clifford group modulo global phase (k = 1 or 2).

    k = 1 is the breadth-first closure over the Hadamard and phase gates.
    k = 2 is the product of the 576 local pairs of ``_two_qubit_factors``
    with its 20 coset representatives, local pair major; no element repeats.
    It is formed one representative at a time, so besides the result only
    the local pairs and one representative's products are held.  Every
    element carries a deterministic phase canonicalization.  Returns one
    read-only (|G|, d, d) array, shared by every caller; sizes are 24 and
    11520.
    """
    if k == 1:
        out = _bfs_closure([_HADAMARD, _PHASE], expect=24)
    elif k == 2:
        c1, reps = _two_qubit_factors()
        pairs = _kron_stack(c1, c1)
        out = np.empty((len(pairs), len(reps), 4, 4), dtype=complex)
        for r, rep in enumerate(reps):
            out[:, r] = _phase_canonical(_product(pairs, rep))
        out = out.reshape(-1, 4, 4)
    else:
        raise UnsupportedSpaceError(f"Clifford enumeration supports k in (1, 2), got {k}")
    out.flags.writeable = False
    return out


def clifford_traces(k: int = 1) -> np.ndarray:
    """Tr g of every element of ``clifford_unitaries(k)``, in its order, up to a phase each.

    k = 2 never stacks the group: Tr((a (x) b) r) = sum a_ij b_kl r_(jl),(ik)
    over the factors of ``_two_qubit_factors``, first w_(b, r, j, i) =
    sum_kl b_kl r_(jl),(ik), then sum_ij a_ij w_(b, r, j, i); |Tr g| does not
    depend on the phase canonicalization.
    """
    if k != 2:
        return np.trace(clifford_unitaries(k), axis1=-2, axis2=-1)
    c1, reps = _two_qubit_factors()
    r = reps.reshape(-1, 2, 2, 2, 2)  # r[n, j, l, i, k] = r_(jl),(ik)
    w = _sum_of_products((c1[:, None, k, l, None, None], r[None, :, :, l, :, k])
                         for k in range(2) for l in range(2))
    return _sum_of_products((c1[:, None, None, i, j], w[None, :, :, j, i])
                            for i in range(2) for j in range(2)).reshape(-1)


def frame_potential(traces: np.ndarray | Sequence[complex]) -> float:
    """Second frame potential F = (1/|G|) sum_g |Tr g|^4 of a finite unitary group, from its traces.

    F is the sum of the squared multiplicities of the irreducible components
    of g (x) g: an integer that is at least 2 in dimension d >= 2, with
    equality exactly when the group is a unitary 2-design (Gross, Audenaert
    and Eisert, J. Math. Phys. 48, 052104, 2007).  |Tr g|^2 is the sum of the
    squared real and imaginary parts.
    """
    t = np.asarray(traces, dtype=complex)
    sq = t.real * t.real + t.imag * t.imag
    return float(np.mean(sq * sq))
