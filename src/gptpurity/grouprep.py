"""Finite reversible groups as monomial maps, and the forms and orbits of the groups they generate.

A map T of ``statespace`` coordinates is a permutation p and phase exponents
e mod r: (T v)[i] = zeta^e[i] v[p[i]], zeta = e^(2 pi i/r).  For r = 2 these
are signed permutations, such as the k-qubit Cliffords on the 4^k Pauli
coordinates and the maps of bipartite boxworld (``boxworld``); the
pentagon's D_5 has r = 5, and the qutrit's 216 Cliffords modulo phase, SL(2, Z_3)
on the displacement labels with the displacements, r = 3.  Every group is given
by generators and never enumerated: one walk over the orbits of coordinate pairs
counts the forms the group fixes and projects a form onto them, and one walk
over a point's images gives its orbit.  A finite group that acts irreducibly on
the Bloch subspace fixes only the unit direction and one Bloch form, so a Gram
its generators fix is the full group's up to scale (Schur's lemma; Gross,
Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
"""

from __future__ import annotations

from . import statespace as ss
from .errors import UnsupportedSpaceError

Map = tuple[tuple[int, ...], tuple[int, ...]]

# On the Pauli coordinates (I, X, Y, Z), H swaps X and Z and negates Y; S sends X to Y, Y to -X.
_H, _S = ((0, 3, 2, 1), (0, 0, 1, 0)), ((0, 2, 1, 3), (0, 1, 0, 0))
# CNOT, control first, on the two-qubit Pauli coordinates: P (x) Q at 4 P + Q.
_CNOT = ((0, 1, 14, 15, 5, 4, 11, 10, 9, 8, 7, 6, 12, 13, 2, 3),
         (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0))

# Each built-in space's (r, generators), by its ``statespace`` kind and level.
_GENERATORS = {
    ("quantum", 2): (2, (_H, _S)),
    # The maps by which the qutrit's Fourier gate w^(jk)/sqrt 3 and phase gate
    # diag(1, 1, w) conjugate the displacements: D_a goes to w^<chi, S a> D_(S a).
    ("quantum", 3): (3, (((0, 3, 6, 2, 5, 8, 1, 4, 7), (0,) * 9),
                         ((0, 1, 2, 5, 3, 4, 7, 8, 6), (0, 0, 0, 1, 1, 1, 2, 2, 2)))),
    # The rotation by pi/2 and the reflection y -> -y, in (1, x - y, x + y).
    ("polygon", 4): (2, (((0, 2, 1), (0, 1, 0)), ((0, 2, 1), (0, 0, 0)))),
    # The rotation by 2 pi/5, z -> zeta z, and the reflection z -> conj z.
    ("polygon", 5): (5, (((0, 1, 2), (0, 1, 4)), ((0, 2, 1), (0, 0, 0)))),
    # The real Clifford group of a rebit: H swaps x and z, Z negates x.
    ("real-quantum", 2): (2, (((0, 2, 1), (0, 0, 0)), ((0, 1, 2), (0, 1, 0)))),
}


def phase(r: int, e: int) -> int | ss.Cyc:
    """zeta^e, as an int when it is +-1."""
    e %= r
    return 1 if e == 0 else -1 if 2 * e == r else ss.Cyc.root(r, e)


def apply(t: Map, v: tuple, r: int) -> tuple:
    """T v."""
    return tuple(phase(r, e) * v[p] for p, e in zip(*t))


def orbit(v: tuple, maps: tuple[Map, ...], r: int) -> tuple:
    """The images of v under the group the maps generate, breadth first from v: level by
    level, and within a level by frontier point, then by generator g, each new g x."""
    found = dict.fromkeys([v])
    frontier = list(found)
    while frontier:
        fresh = [apply(g, x, r) for x in frontier for g in maps]
        frontier = [found.setdefault(y, y) for y in fresh if y not in found]
    return tuple(found)


def _pair_orbits(maps: tuple[Map, ...], r: int):
    """Each orbit of coordinate pairs (k, l) under the group the maps generate, as
    (pairs, exponent, free).

    Entry (p_k, p_l) of T^t X T is zeta^(e_k + e_l) X[k][l], so a search over the pairs,
    carrying exponents from each orbit's first pair, finds the orbits; ``exponent`` is one
    dict over all pairs so far.  A form with X = T^t X T for every map is c zeta^x on an
    orbit, x its exponents, unless the orbit returns to a pair with another exponent,
    which forces it to 0: then the orbit is not free.
    """
    n, exponent = len(maps[0][0]), {}
    for root in ((k, l) for k in range(n) for l in range(n) if (k, l) not in exponent):
        exponent[root], pairs, free = 0, [root], True
        # Breadth first: the loop reaches each pair as it is appended.
        for k, l in pairs:
            for p, e in maps:
                pair, x = (p[k], p[l]), (exponent[k, l] + e[k] + e[l]) % r
                if pair not in exponent:
                    pairs.append(pair)
                free &= exponent.setdefault(pair, x) == x
        yield pairs, exponent, free


def invariant_form_count(maps: tuple[Map, ...], r: int) -> int:
    """The dimension of the bilinear forms X with T^t X T = X for every given map T: the
    number of free pair orbits.  For a group this is (1/|G|) sum_g chi(g)^2 (Serre,
    *Linear Representations of Finite Groups*, 2.1)."""
    return sum(free for _, _, free in _pair_orbits(maps, r))


def twirl(form: tuple, maps: tuple[Map, ...], r: int) -> tuple:
    """Pi(Q) = (1/|G|) sum_T T^t Q T over the group the maps generate, from the sparse
    entries ((k, l), w) of Q, as its entries on the free pair orbits; every other entry is 0.

    Pi is the orthogonal projection onto the fixed forms, and the fixed forms zeta^x of
    the free orbits are orthogonal: on each orbit O, Pi(Q) is Q's phase-weighted mean
    (1/|O|) sum zeta^(-x) Q[pair] times zeta^x.
    """
    q, out = dict(form), []
    for pairs, exponent, free in _pair_orbits(maps, r):
        if free:
            mean = sum(phase(r, -exponent[p]) * q.get(p, 0) for p in pairs)
            mean *= ss.rational(1, len(pairs))
            out += [(p, phase(r, exponent[p]) * mean) for p in pairs]
    return tuple(out)


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
