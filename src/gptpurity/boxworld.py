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
the vertex orbits and the three invariant forms all come from the five
generators of the 128 reversible maps, which are never enumerated.  No numpy
is imported.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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


def vertex_purities() -> tuple[list[ss.Cyc], list[ss.Cyc]]:
    """Default purities of the 16 product vertices and of the 8 PR-type vertices."""
    p = [purity(v) for v in vertices()]
    return p[:PRODUCT_COUNT], p[PRODUCT_COUNT:]


class ObstructionRecord(NamedTuple):
    """Why no invariant inner product normalizes all boxworld pure states.

    The purities of the two vertex families are linear in the block weights:
    P(product) = c (a + 2 b) and P(PR) = c a with c = 1/3.  Solving for both
    to equal 1 forces b = 0, which violates positivity; the resulting
    degenerate form assigns purity 0 to states besides the maximally mixed
    one, exhibited by ``zero_purity_state``.
    """

    solution_a: ss.Cyc
    solution_b: ss.Cyc
    product_coefficients: tuple[ss.Cyc, ss.Cyc]
    pr_coefficients: tuple[ss.Cyc, ss.Cyc]
    zero_purity_state: tuple[int, ...]
    zero_purity_value: ss.Cyc


def boxworld_normalization_obstruction() -> ObstructionRecord:
    """Solve for weights giving every pure state purity 1; report the failure.

    The 2x2 linear system over the first product and the first PR vertex
    has the unique solution (a, b) = (3, 0) by Cramer's rule, so
    simultaneous normalization requires a degenerate (b = 0) form.
    """
    verts = vertices()
    (p, q), (r, s) = [(purity(v, 1, 0), purity(v, 0, 1)) for v in
                      (verts[0], verts[PRODUCT_COUNT])]
    det = p * s - q * r
    a, b = (s - q) / det, (p - r) / det
    # The first gbit vertex on B with A maximally mixed: its Bloch vector is
    # all marginal, which the degenerate form does not see.
    witness = (1, 1, 1, 0, 0, 0, 0, 0, 0)
    return ObstructionRecord(a, b, (p, q), (r, s), witness, purity(witness, a, b))


def transitivity_obstruction_witness() -> bool:
    """True when the group's orbits on the 24 vertices are exactly the two families.

    Then every element maps the vertex set onto itself and no element
    connects a product vertex with a PR-type vertex: bipartite boxworld is
    not transitive.
    """
    verts = vertices()
    index = {v: k for k, v in enumerate(verts)}
    orbits = {frozenset(index.get(w) for w in grouprep.orbit(v, GENERATORS, 2)) for v in verts}
    return orbits == {frozenset(range(PRODUCT_COUNT)), frozenset(range(PRODUCT_COUNT, 24))}
