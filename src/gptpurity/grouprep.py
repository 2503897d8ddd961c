"""Finite reversible groups as monomial maps, and the count of the forms they leave invariant.

A map T of ``statespace`` coordinates is a permutation p and phase exponents
e mod r: (T v)[i] = zeta^e[i] v[p[i]], zeta = e^(2 pi i/r).  For r = 2 these
are signed permutations, such as the qubit's Cliffords in Pauli coordinates
and the 128 maps of bipartite boxworld (``boxworld``); the pentagon's D_5
has r = 5, and the qutrit's 216 Cliffords modulo phase, SL(2, Z_3) on the
displacement labels with the displacements, r = 3.  A finite group that acts irreducibly
on the Bloch subspace fixes only the unit direction and one Bloch form, so a
Gram it fixes is the full group's up to scale (Schur's lemma; Gross,
Audenaert and Eisert, J. Math. Phys. 48, 052104, 2007).
"""

from __future__ import annotations

from . import clifford
from . import statespace as ss
from .errors import UnsupportedSpaceError
from .statespace import Cyc

Map = tuple[tuple[int, ...], tuple[int, ...]]

# The Paulis X, Y, Z, row-major, as Gaussian integers.
_PAULIS = ((0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1))

_GENERATORS = {
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


def character(t: Map, r: int) -> int | Cyc:
    """Tr T: the sum of the phases zeta^e of the coordinates that T maps to themselves."""
    counts = [0] * r
    for i, (p, e) in enumerate(zip(*t)):
        counts[e] += p == i
    return counts[0] - counts[1] if r == 2 else Cyc(counts)


def invariant_form_count(elements: tuple[Map, ...], r: int) -> object:
    """The dimension of the symmetric forms X with T^t X T = X for every T of a finite group:
    (1/|G|) sum_g (chi(g)^2 + chi(g^2))/2, the symmetric-square character formula (Serre,
    *Linear Representations of Finite Groups*, section 2.1)."""
    total = 0
    for t in elements:
        chi = character(t, r)
        total = total + chi * chi + character(compose(t, t, r), r)
    return ss.rational(1, 2 * len(elements)) * total


def invariance_deviation(gram: tuple, maps: tuple[Map, ...], r: int) -> object:
    """max |T^t G T - G| over the maps: entry (p_k, p_l) of T^t G T is zeta^(e_k + e_l) G[k][l]."""
    g = dict(gram)
    return max(abs(phase(r, ek + el) * g.get((k, l), 0) - g.get((pk, pl), 0)) for t in maps
               for k, (pk, ek) in enumerate(zip(*t)) for l, (pl, el) in enumerate(zip(*t)))


def _pauli_map(element: tuple[int, tuple]) -> Map:
    """The signed permutation of the Pauli coordinates by which a Clifford (k, G) of
    ``clifford`` conjugates: G P G^dag = s 2^k Q sends coordinate P to s times Q."""
    g = element[1]
    perm, signs = [0] * 4, [0] * 4
    for p, pauli in enumerate(_PAULIS, 1):
        gp = [sum(g[2 * i + l] * pauli[2 * l + j] for l in range(2))
              for i in range(2) for j in range(2)]
        # Tr(Q G P G^dag) = sum Q_ji (G P)_il conj(G_jl): +-2^(k+1) for one Q, 0 for the others.
        for q, other in enumerate(_PAULIS, 1):
            if t := sum(other[2 * j + i] * gp[2 * i + l] * complex(g[2 * j + l]).conjugate()
                        for i in range(2) for j in range(2) for l in range(2)):
                perm[q], signs[q] = p, int(t.real < 0)
    return tuple(perm), tuple(signs)


def qubit_cliffords() -> tuple[Map, ...]:
    """The 24 Cliffords of ``clifford.one_qubit_group()`` as signed permutations, in its order:
    both are breadth-first closures over H and S, its second and third elements."""
    return closure(group_generators(ss.QUBIT)[1], 2)


def group_generators(space: ss.Space) -> tuple[int, tuple[Map, ...]]:
    """(r, maps) that generate a built-in space's finite reversible group.

    Classical n: the transposition (0 1) and the n-cycle.  Qubit: H and S.  The
    others: ``_GENERATORS``.
    """
    n, zeros = space.level, (0,) * space.level
    if space.kind == ss.KIND_CLASSICAL:
        return 2, (((1, 0, *range(2, n)), zeros), (tuple((i - 1) % n for i in range(n)), zeros))
    if (space.kind, n) == (ss.KIND_QUANTUM, 2):
        return 2, tuple(map(_pauli_map, clifford.one_qubit_group()[1:3]))
    if (space.kind, n) in _GENERATORS:
        return _GENERATORS[space.kind, n]
    raise UnsupportedSpaceError(f"no finite group for {space.kind}-{n}")
