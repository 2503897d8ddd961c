"""The one- and two-qubit Clifford groups and the unitary 2-design identity, exactly.

An element modulo global phase is a pair (k, G): G is a row-major tuple of
Gaussian integers and the unitary is G / (1 + i)^k.  H = [[1, 1], [1, -1]] /
(1 + i) is the Hadamard gate up to the phase e^(-i pi/4), and S = diag(1, i).
Gaussian integers are Python complex numbers with integer parts, which every
product and sum here keeps exact: their parts stay far below 2^53.  So the
canonical form is an exact key, the group is closed with no rounding, and the
frame potential is one ratio of integers.  This module imports no numpy and
reads no state space.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from gptpurity.errors import RangeError

# The units of the Gaussian integers.
_UNITS = (1, 1j, -1, -1j)
_HADAMARD = (1, (1, 1, 1, -1))
_PHASE = (0, (1, 0, 0, 1j))


def canonical(k: int, g: tuple) -> tuple[int, tuple]:
    """The canonical (k, G) of G / (1 + i)^k modulo phase; G may also be a column.

    G is divided by 1 + i while every entry a + bi allows it (a + b even), and
    then multiplied by the unit that puts its first nonzero entry in re > 0,
    im >= 0.  Two unitaries, or two unit columns, give the same key exactly
    when they agree up to phase: no Gaussian prime but 1 + i divides a power
    of 2.
    """
    while all((x.real + x.imag) % 2 == 0 for x in g):
        g = tuple(x * (1 - 1j) / 2 for x in g)
        k -= 1
    first = next(x for x in g if x)
    unit = next(u for u in _UNITS if (u * first).real > 0 and (u * first).imag >= 0)
    return k, tuple(unit * x for x in g)


def _mul(a: tuple[int, tuple], b: tuple[int, tuple]) -> tuple[int, tuple]:
    """The canonical product a b of two elements."""
    (ka, ga), (kb, gb) = a, b
    d = math.isqrt(len(ga))
    return canonical(ka + kb, tuple(sum(ga[i * d + l] * gb[l * d + j] for l in range(d))
                                    for i in range(d) for j in range(d)))


def _kron(a: tuple[int, tuple], b: tuple[int, tuple]) -> tuple[int, tuple]:
    """The canonical Kronecker product a (x) b of two elements."""
    (ka, ga), (kb, gb) = a, b
    da, db = math.isqrt(len(ga)), math.isqrt(len(gb))
    return canonical(ka + kb, tuple(ga[i * da + j] * gb[k * db + l]
                                    for i in range(da) for k in range(db)
                                    for j in range(da) for l in range(db)))


def _perm(cols: Sequence[int], scale: Sequence[complex] | None = None) -> tuple[int, tuple]:
    """The monomial element whose row r holds ``scale[r]`` (1 by default) in column cols[r]."""
    d = len(cols)
    scale = scale or [1] * d
    return canonical(0, tuple(scale[r] if c == cols[r] else 0
                              for r in range(d) for c in range(d)))


def _closure(generators: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """Breadth-first closure of the generated group modulo phase, in discovery order:
    level by level, and within a level by frontier element, then by generator g,
    each new element g x."""
    d = math.isqrt(len(generators[0][1]))
    found = {_perm(range(d)): None}
    frontier = list(found)
    while frontier:
        fresh = []
        for x in frontier:
            for g in generators:
                y = _mul(g, x)
                if y not in found:
                    found[y] = None
                    fresh.append(y)
        frontier = fresh
    return list(found)


@lru_cache(maxsize=None)
def one_qubit_group() -> tuple[tuple[int, tuple], ...]:
    """The 24 one-qubit Cliffords modulo phase: the closure over H and S, identity first."""
    return tuple(_closure([_HADAMARD, _PHASE]))


def _two_qubit_factors() -> tuple[tuple, list[tuple[int, tuple]]]:
    """The one-qubit Clifford group and the 20 coset representatives of the two-qubit group.

    C_2 / phase = (C_1 (x) C_1) {I, CNOT S, iSWAP S, SWAP},  S in S_1 (x) S_1,
    the four-class decomposition of two-qubit randomized benchmarking
    (Barends et al., Nature 508, 500, 2014), with S_1 = {I, SH, (SH)^2},
    whose conjugations cycle the Pauli axes.  Every one of the 11520 products
    (a (x) b) r is a distinct element.
    """
    ident, sh = _perm([0, 1]), _mul(_PHASE, _HADAMARD)
    s1 = [ident, sh, _mul(sh, sh)]
    s11 = [_kron(a, b) for a in s1 for b in s1]
    cnot, iswap = _perm([0, 1, 3, 2]), _perm([0, 2, 1, 3], [1, 1j, 1j, 1])
    reps = [_perm([0, 1, 2, 3])] + [_mul(cnot, s) for s in s11] + [_mul(iswap, s) for s in s11]
    return one_qubit_group(), reps + [_perm([0, 2, 1, 3])]


def clifford_traces(k: int = 1) -> Iterator[tuple[int, complex]]:
    """Tr g of every k-qubit Clifford g modulo phase (k = 1 or 2), each as (k_g, t_g):
    Tr g = t_g / (1 + i)^(k_g) up to a phase.

    k = 1 is ``one_qubit_group()`` in its order.  k = 2 never forms the
    group, and yields each trace as it is taken: Tr((a (x) b) r) =
    sum a_ij b_kl r_(jl),(ik) over the factors of ``_two_qubit_factors``,
    local pair major, first w_(b, r, j, i) = sum_kl b_kl r_(jl),(ik), then
    sum_ij a_ij w_(b, r, j, i).
    """
    if k == 1:
        return ((kg, g[0] + g[3]) for kg, g in one_qubit_group())
    if k != 2:
        raise RangeError(f"Clifford enumeration supports k in (1, 2), got {k}")
    c1, reps = _two_qubit_factors()
    # w[b][r] = (k_b + k_r, w_(b, r, j, i) at 2 i + j, like a_ij), with b_kl at 2 p + q.
    w = [[(kb + kr, [sum(b[2 * p + q] * r[8 * j + 4 * q + 2 * i + p]
                         for p in range(2) for q in range(2))
                     for i in range(2) for j in range(2)]) for kr, r in reps] for kb, b in c1]
    return ((ka + kw, a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3)
            for ka, (a0, a1, a2, a3) in c1 for wb in w for kw, (w0, w1, w2, w3) in wb)


def frame_potential(traces: Iterable[tuple[int, complex]]) -> tuple[int, int]:
    """Second frame potential F = (1/|G|) sum_g |Tr g|^4 of a finite unitary group, as
    the integers (num, den) with F = num / den, from its traces (k_g, t_g).

    |Tr g|^4 = |t_g|^4 / 4^(k_g): the traces are counted by (k_g, |t_g|^2)
    as they come.  F is the sum of the squared multiplicities of the irreducible
    components of g (x) g: an integer that is at least 2 in dimension d >= 2,
    with equality exactly when the group is a unitary 2-design (Gross,
    Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
    """
    counts = Counter((k, int(t.real * t.real + t.imag * t.imag)) for k, t in traces)
    top = max(k for k, _ in counts)
    num = sum(m * n * n << 2 * (top - k) for (k, n), m in counts.items())
    return num, sum(counts.values()) << 2 * top
