"""Purity in bipartite boxworld (two gbits under the no-signalling polytope), exactly.

The bipartite boxworld state space is not transitive: no reversible
transformation connects pure product states with PR-type states, so the
transitive-space purity construction does not apply.  One can still pick an
invariant inner product on the Bloch subspace; the reversible group leaves
two blocks invariant (the correlation block and the two marginal blocks), so
the product carries independent weights a and b.  With the default weights
a = b = 1 and overall constant c = 1/3, the pure product states have purity
1 while every PR-type state has purity 1/3, and no choice of positive
weights can normalize both families to 1 simultaneously.

Each gbit is written in the rescaled basis (1, sqrt2 x, sqrt2 y), in which
its pure states are (1, +-1, +-1).  A state is the 9-tuple of coefficients of
e_i (x) e_j at index 3 i + j.  Every pure state then has entries in
{-1, 0, 1}, and every reversible map is a signed permutation of the nine
coordinates, a ``grouprep`` map with r = 2.  So purities are ``statespace``
rationals, every fact below is an exact equality, and the PR-type states,
the two vertex orbits and the three invariant forms all come from the five
generators of the 128 reversible maps, which are never enumerated.  No numpy
is imported.
"""

from __future__ import annotations

from functools import lru_cache

from . import grouprep
from . import statespace as ss

# The correlation block A-hat (x) B-hat, and the marginal blocks
# mu (x) B-hat and A-hat (x) mu.
CORR = (4, 5, 7, 8)
MARG = (1, 2, 3, 6)
# The overall constant c of the default inner product.
SCALE = ss.rational(1, 3)
PRODUCT_COUNT = 16


# The generators of the 128 reversible maps: the D4 rotation by pi/2 and the reflection
# diag(1, -1) of one gbit's (x, y), on A, then on B, and the swap of the two parties.
GENERATORS = (((0, 1, 2, 6, 7, 8, 3, 4, 5), (0, 0, 0, 1, 1, 1, 0, 0, 0)),
              ((0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 0, 0, 0, 0, 1, 1, 1)),
              ((0, 2, 1, 3, 5, 4, 6, 8, 7), (0, 1, 0, 0, 1, 0, 0, 1, 0)),
              ((0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 0, 1, 0, 0, 1, 0, 0, 1)),
              ((0, 3, 6, 1, 4, 7, 2, 5, 8), (0,) * 9))
# The canonical PR box.
PR = (1, 0, 0, 0, 1, 1, 0, 1, -1)


@lru_cache(maxsize=1)
def vertices() -> tuple[tuple[int, ...], ...]:
    """The 24 pure states: the 16 products, then the 8 PR-type states, the orbit of the
    canonical PR box in ``grouprep.orbit``'s breadth-first order."""
    gbit = [(1, r, s) for r in (1, -1) for s in (1, -1)]
    products = [tuple(x * y for x in a for y in b) for a in gbit for b in gbit]
    return tuple(products) + grouprep.orbit(PR, GENERATORS, 2)


def purity(v: tuple[int, ...], a: ss.Cyc | int = 1, b: ss.Cyc | int = 1) -> ss.Cyc:
    """The block-weighted purity c (a |corr|^2 + b |marg|^2) of a normalized state.

    A rescaled correlation entry is twice, and a rescaled marginal entry
    sqrt2 times, the unscaled one, so here it is c (a/4 |corr|^2 + b/2 |marg|^2).
    """
    corr = sum(v[i] * v[i] for i in CORR)
    marg = sum(v[i] * v[i] for i in MARG)
    return SCALE * (a * ss.rational(corr, 4) + b * ss.rational(marg, 2))


# The default inner product's Gram, as the nonzero entries ((i, i), w) of a diagonal form:
# w is the purity of coordinate vector i, c/4 on the correlation block and c/2 on the marginal.
GRAM = tuple(((k, k), purity(tuple(int(i == k) for i in range(9)))) for k in range(1, 9))


# The first gbit vertex on B with A maximally mixed: its Bloch vector is all marginal,
# which a form with b = 0 does not see.
MARGINAL_STATE = (1, 1, 1, 0, 0, 0, 0, 0, 0)


def normalizing_weights() -> tuple[ss.Cyc, ss.Cyc]:
    """The block weights (a, b) giving both vertex families purity 1, by Cramer's rule.

    P(product) = c (a + 2 b) and P(PR) = c a with c = 1/3, so (a, b) = (3, 0): b = 0
    violates positivity, and the degenerate form gives ``MARGINAL_STATE`` purity 0.
    """
    verts = vertices()
    (p, q), (r, s) = [(purity(v, 1, 0), purity(v, 0, 1)) for v in
                      (verts[0], verts[PRODUCT_COUNT])]
    det = p * s - q * r
    return (s - q) / det, (p - r) / det


def transitivity_obstruction_witness() -> bool:
    """True when the group's orbits on the 24 vertices are exactly the two families: orbits
    partition the vertices, so the orbits of the first product vertex and of ``PR`` decide
    it.  Then no element connects a product with a PR-type vertex: boxworld is not transitive.
    """
    verts = vertices()
    return (set(grouprep.orbit(verts[0], GENERATORS, 2)) == set(verts[:PRODUCT_COUNT])
            and set(grouprep.orbit(PR, GENERATORS, 2)) == set(verts[PRODUCT_COUNT:]))
