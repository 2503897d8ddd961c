"""The built-in state spaces in exact coordinates, where their reversible maps are monomial.

The qubit is held in Pauli coordinates Tr(P rho), the real qubit likewise, the
qutrit in displacement coordinates Tr(D_a^dag rho) (Appleby, J. Math. Phys.
46, 052107, 2005), a classical space as probabilities, the square (the gbit)
in boxworld's rescaled basis (1, x - y, x + y) and the pentagon in
(1, z, conj z), z = x + i y.  Coordinates are ints and ``Cyc`` numbers, so
every identity is exact; a deviation becomes a float only in a report.
Bipartite boxworld (``boxworld``) holds its purities as the same rationals.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import RangeError

KIND_QUANTUM = "quantum"
KIND_CLASSICAL = "classical"
KIND_POLYGON = "polygon"
KIND_REAL_QUANTUM = "real-quantum"



class Cyc:
    """(sum_k c[k] zeta^k)/d with int c and d > 0, zeta = e^(2 pi i/r): a rational for r = 1,
    else a number of the cyclotomic field Q(zeta) for a prime r, whose powers of zeta sum to 0
    and satisfy no other relation, so that it is zero exactly when its coefficients are equal."""

    __slots__ = ("c", "d")

    def __init__(self, c, d: int = 1):
        c = tuple(c)
        g = math.gcd(d, *c)
        self.c, self.d = (tuple([a // g for a in c]), d // g) if g > 1 else (c, d)

    @classmethod
    def root(cls, r: int, e: int) -> Cyc:
        """zeta^e."""
        return cls(int(k == e % r) for k in range(r))

    def _pair(self, x) -> tuple[Cyc, Cyc]:
        """Both numbers over the longer coefficient tuple: a rational pads with zeros."""
        x = x if isinstance(x, Cyc) else Cyc((x,))
        m, n = len(self.c), len(x.c)
        if m == n:
            return self, x
        pad = Cyc(self.c + (0,) * (n - m), self.d) if m < n else Cyc(x.c + (0,) * (m - n), x.d)
        return (pad, x) if m < n else (self, pad)

    def __add__(self, x) -> Cyc:
        if type(x) is int and x == 0:  # the start of a sum
            return self
        a, b = self._pair(x)
        return Cyc([p * b.d + q * a.d for p, q in zip(a.c, b.c)], a.d * b.d)

    __radd__ = __add__

    def __sub__(self, x) -> Cyc:
        return self + -1 * x

    def __rsub__(self, x) -> Cyc:
        return -1 * self + x

    def __mul__(self, x) -> Cyc:
        a, b = self._pair(x)
        if len(a.c) == 1:
            return Cyc((a.c[0] * b.c[0],), a.d * b.d)
        out = [0] * len(a.c)
        for i, p in enumerate(a.c):
            for j, q in enumerate(b.c if p else ()):
                out[(i + j) % len(out)] += p * q
        return Cyc(out, a.d * b.d)

    __rmul__ = __mul__

    def __truediv__(self, x) -> Cyc:  # by a nonzero rational
        n, d = (x.c[0], x.d) if isinstance(x, Cyc) else (x, 1)
        return self * Cyc((d if n > 0 else -d,), abs(n))

    def __eq__(self, x) -> bool:
        a, b = self._pair(x)
        d = [p * b.d - q * a.d for p, q in zip(a.c, b.c)]
        return all(v == d[0] for v in d) and (len(d) > 1 or d[0] == 0)

    def __abs__(self) -> float:  # 0.0 exactly when x is zero; only reports read it
        r = len(self.c)
        return 0.0 if self == 0 else abs(sum(a * cmath.exp(2j * cmath.pi * k / r)
                                             for k, a in enumerate(self.c))) / self.d


def rational(a: int, b: int = 1) -> Cyc:
    """a/b, b > 0."""
    return Cyc((a,), b)


HALF = rational(1, 2)


class Space(NamedTuple):
    """A space in exact coordinates: its kind and level as the suites name them, pure
    states that span it (in the float reference's order; empty where no suite reads
    them), its maximally mixed state, and its Gram as the nonzero entries ((i, j), w) of
    the symmetric form whose square of a Bloch vector is the purity."""

    kind: str
    level: int
    pures: tuple
    mixed: tuple
    gram: tuple


def bloch(space: Space, omega: tuple) -> tuple:
    """The Bloch vector omega - mixed."""
    return tuple(a - m for a, m in zip(omega, space.mixed))


def covector(space: Space, x: tuple) -> list:
    """G x, the functional <x, .> of the Gram product."""
    out = [0] * len(x)
    for (i, j), w in space.gram:
        out[i] += w * x[j]
    return out


def dot(u, v) -> object:
    return sum(a * b for a, b in zip(u, v) if a)


def with_midpoints(states: tuple) -> tuple:
    """The states, then the midpoint of each pair i < j in row-major order.  Two quadratic
    forms that agree on spanning states and on their midpoints agree everywhere: by
    polarization, 4 Q((a + b)/2) = Q(a) + Q(b) + 2 B(a, b) fixes the bilinear form B."""
    return tuple(states) + tuple(tuple(HALF * (a + b) for a, b in zip(s, t))
                                 for i, s in enumerate(states) for t in states[i + 1:])


def build_classical(n: int) -> Space:
    """n outcomes: the point masses, and the Gram (n delta_ij - 1)/(n - 1)."""
    if n < 2:
        raise RangeError(f"classical outcome count must be >= 2, got {n}")
    pures = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gram = tuple(((i, j), rational(n * a - 1, n - 1)) for i, row in enumerate(pures)
                 for j, a in enumerate(row))
    return Space(KIND_CLASSICAL, n, pures, (rational(1, n),) * n, gram)


# The qubit, with its six Pauli eigenstates in the order of their Clifford orbit.
QUBIT = Space(KIND_QUANTUM, 2, ((1, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
                                (1, -1, 0, 0), (1, 0, 0, -1)),
              (1, 0, 0, 0), (((1, 1), 1), ((2, 2), 1), ((3, 3), 1)))
# The qutrit, with D_a = tau^(a1 a2) X^a1 Z^a2, tau = -e^(i pi/3), at index 3 a1 + a2:
# Tr rho^2 = (1/3) sum_a x_a x_(-a), so the purity (3 Tr rho^2 - 1)/2 pairs a with -a at 1/2.
QUTRIT = Space(KIND_QUANTUM, 3, (), (1,) + (0,) * 8,
               tuple(((a, 3 * (-(a // 3) % 3) + -a % 3), HALF) for a in range(1, 9)))
REAL_QUBIT = Space(KIND_REAL_QUANTUM, 2, (), (1, 0, 0), (((1, 1), 1), ((2, 2), 1)))
# The polygons, vertex k at angle 2 pi k/n with a Euclidean Bloch plane: the square's
# vertices are (1, +-1, +-1), and the pentagon's (1, zeta^k, zeta^-k), zeta = e^(2 pi i/5).
SQUARE = Space(KIND_POLYGON, 4, ((1, 1, 1), (1, -1, 1), (1, -1, -1), (1, 1, -1)), (1, 0, 0),
               (((1, 1), HALF), ((2, 2), HALF)))
PENTAGON = Space(KIND_POLYGON, 5, tuple((1, Cyc.root(5, k), Cyc.root(5, -k)) for k in range(5)),
                 (1, 0, 0), (((1, 2), HALF), ((2, 1), HALF)))
