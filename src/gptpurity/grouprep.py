"""Finite reversible groups as monomial maps, and the count of the forms they leave invariant.

A map T of ``statespace`` coordinates is a permutation p and phase exponents
e mod r: (T v)[i] = zeta^e[i] v[p[i]], zeta = e^(2 pi i/r).  For r = 2 these
are signed permutations, such as the k-qubit Cliffords on the 4^k Pauli
coordinates and the 128 maps of bipartite boxworld (``boxworld``); the
pentagon's D_5 has r = 5, and the qutrit's 216 Cliffords modulo phase, SL(2, Z_3)
on the displacement labels with the displacements, r = 3.  A finite group that
acts irreducibly on the Bloch subspace fixes only the unit direction and one
Bloch form, so a Gram its generators fix is the full group's up to scale (Schur's
lemma; Gross, Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
"""

from __future__ import annotations

from . import statespace as ss
from .errors import UnsupportedSpaceError
from .statespace import Cyc

Map = tuple[tuple[int, ...], tuple[int, ...]]

# On the Pauli coordinates (I, X, Y, Z), H swaps X and Z and negates Y; S sends X to Y, Y to -X.
_H, _S = ((0, 3, 2, 1), (0, 0, 1, 0)), ((0, 2, 1, 3), (0, 1, 0, 0))
# CNOT, control first, on the two-qubit Pauli coordinates: P (x) Q at 4 P + Q.
_CNOT = ((0, 1, 14, 15, 5, 4, 11, 10, 9, 8, 7, 6, 12, 13, 2, 3),
         (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0))

_GENERATORS = {
    (ss.KIND_QUANTUM, 2): (2, (_H, _S)),
    # The maps by which the qutrit's Fourier gate w^(jk)/sqrt 3 and phase gate
    # diag(1, 1, w) conjugate the displacements: D_a goes to w^<chi, S a> D_(S a).
    (ss.KIND_QUANTUM, 3): (3, (((0, 3, 6, 2, 5, 8, 1, 4, 7), (0,) * 9),
                               ((0, 1, 2, 5, 3, 4, 7, 8, 6), (0, 0, 0, 1, 1, 1, 2, 2, 2)))),
    # The rotation by pi/2 and the reflection y -> -y, in (1, x - y, x + y).
    (ss.KIND_POLYGON, 4): (2, (((0, 2, 1), (0, 1, 0)), ((0, 2, 1), (0, 0, 0)))),
    # The rotation by 2 pi/5, z -> zeta z, and the reflection z -> conj z.
    (ss.KIND_POLYGON, 5): (5, (((0, 1, 2), (0, 1, 4)), ((0, 2, 1), (0, 0, 0)))),
    # The real Clifford group of a rebit: H swaps x and z, Z negates x.
    (ss.KIND_REAL_QUANTUM, 2): (2, (((0, 2, 1), (0, 0, 0)), ((0, 1, 2), (0, 1, 0)))),
}


def phase(r: int, e: int) -> int | Cyc:
    """zeta^e, as an int when it is +-1."""
    e %= r
    return 1 if e == 0 else -1 if 2 * e == r else Cyc.root(r, e)


def compose(s: Map, t: Map, r: int) -> Map:
    """The product S T."""
    (tp, te), (sp, se) = t, s
    return tuple([tp[p] for p in sp]), tuple([(e + te[p]) % r for p, e in zip(sp, se)])


def apply(t: Map, v: tuple, r: int) -> tuple:
    """T v."""
    return tuple(phase(r, e) * v[p] for p, e in zip(*t))


def closure(generators: tuple[Map, ...], r: int) -> tuple[Map, ...]:
    """The group the maps generate, breadth first from the identity: level by level,
    and within a level by frontier element, then by generator g, each new g x."""
    k = len(generators[0][0])
    found = dict.fromkeys([(tuple(range(k)), (0,) * k)])
    frontier = list(found)
    while frontier:
        fresh = [compose(g, x, r) for x in frontier for g in generators]
        frontier = [found.setdefault(y, y) for y in fresh if y not in found]
    return tuple(found)


def invariant_form_count(maps: tuple[Map, ...], r: int) -> int:
    """The dimension of the bilinear forms X with T^t X T = X for every given map T.

    Entry (p_k, p_l) of T^t X T is zeta^(e_k + e_l) X[k][l], so a search over the pairs
    (k, l), carrying exponents from each orbit's first pair, finds the orbits of the
    group the maps generate.  An orbit is one free entry unless it returns to a pair
    with another exponent, which forces it to 0.  For a group this is (1/|G|) sum_g
    chi(g)^2 (Serre, *Linear Representations of Finite Groups*, 2.1).
    """
    n, exponent, count = len(maps[0][0]), {}, 0
    for root in ((k, l) for k in range(n) for l in range(n) if (k, l) not in exponent):
        exponent[root], frontier, free = 0, [root], True
        while frontier:
            k, l = frontier.pop()
            for p, e in maps:
                pair, x = (p[k], p[l]), (exponent[k, l] + e[k] + e[l]) % r
                if pair not in exponent:
                    frontier.append(pair)
                free &= exponent.setdefault(pair, x) == x
        count += free
    return count


def invariance_deviation(gram: tuple, maps: tuple[Map, ...], r: int) -> object:
    """max |T^t G T - G| over the maps: entry (p_k, p_l) of T^t G T is zeta^(e_k + e_l) G[k][l]."""
    g = dict(gram)
    return max(abs(phase(r, ek + el) * g.get((k, l), 0) - g.get((pk, pl), 0)) for t in maps
               for k, (pk, ek) in enumerate(zip(*t)) for l, (pl, el) in enumerate(zip(*t)))


def kron(a: Map, b: Map, r: int) -> Map:
    """A (x) B: coordinate d i + j, for B's d coordinates, is A's i times B's j."""
    d = len(b[0])
    return (tuple(d * pa + pb for pa in a[0] for pb in b[0]),
            tuple((ea + eb) % r for ea in a[1] for eb in b[1]))


def clifford_generators(k: int) -> tuple[Map, ...]:
    """Maps that generate the k-qubit Cliffords' conjugation of the 4^k Pauli coordinates,
    k = 1 or 2: H and S, or H (x) I, I (x) H, S (x) I, I (x) S and CNOT."""
    if k == 1:
        return _H, _S
    if k != 2:
        raise UnsupportedSpaceError(f"Clifford generators support k in (1, 2), got {k}")
    eye = ((0, 1, 2, 3), (0,) * 4)
    return kron(_H, eye, 2), kron(eye, _H, 2), kron(_S, eye, 2), kron(eye, _S, 2), _CNOT


def qubit_cliffords() -> tuple[Map, ...]:
    """The 24 one-qubit Cliffords as signed permutations of the Pauli coordinates, in the
    breadth-first order of their closure over H and S."""
    return closure(clifford_generators(1), 2)


def group_generators(space: ss.Space) -> tuple[int, tuple[Map, ...]]:
    """(r, maps) that generate a built-in space's finite reversible group.

    Classical n: the transposition (0 1) and the n-cycle.  The others: ``_GENERATORS``.
    """
    n, zeros = space.level, (0,) * space.level
    if space.kind == ss.KIND_CLASSICAL:
        return 2, (((1, 0, *range(2, n)), zeros), (tuple((i - 1) % n for i in range(n)), zeros))
    if (space.kind, n) in _GENERATORS:
        return _GENERATORS[space.kind, n]
    raise UnsupportedSpaceError(f"no finite group for {space.kind}-{n}")
