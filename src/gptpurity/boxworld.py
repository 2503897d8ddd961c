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
coordinates, so purities are ``fractions.Fraction`` values and every fact
below is an exact equality.  This module imports no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

# The correlation block A-hat (x) B-hat, and the marginal blocks
# mu (x) B-hat and A-hat (x) mu.
CORR = (4, 5, 7, 8)
MARG = (1, 2, 3, 6)
# The overall constant c of the default inner product.
SCALE = Fraction(1, 3)
PRODUCT_COUNT = 16

# A signed permutation T, held as its rows: row i is (p, s) with T[i, p] = s,
# so (T v)[i] = s v[p].
Map = tuple[tuple[int, int], ...]


def _compose(s: Map, t: Map) -> Map:
    """The product S T."""
    return tuple((t[p][0], sign * t[p][1]) for p, sign in s)


def _apply(t: Map, v: tuple[int, ...]) -> tuple[int, ...]:
    """T v."""
    return tuple(sign * v[p] for p, sign in t)


def _kron(a: Map, b: Map) -> Map:
    """A (x) B of two maps of one gbit."""
    return tuple((3 * pa + pb, sa * sb) for pa, sa in a for pb, sb in b)


def _gbit_symmetries() -> list[Map]:
    """D4 on one gbit: the rotations R^k by k pi/2, then the reflections R^k F, F = diag(1, -1)."""
    rotations = [((0, 1), (1, 1), (2, 1))]
    for _ in range(3):
        rotations.append(_compose(((0, 1), (2, -1), (1, 1)), rotations[-1]))
    return rotations + [_compose(r, ((0, 1), (1, 1), (2, -1))) for r in rotations]


@lru_cache(maxsize=1)
def group_elements() -> tuple[Map, ...]:
    """All 128 reversible transformations of bipartite boxworld.

    These are the local pairs G_A (x) G_B with G in D4 on each side (G_A
    major), then each of those composed with the swap of the two parties.
    """
    d4 = _gbit_symmetries()
    pairs = [_kron(a, b) for a in d4 for b in d4]
    swap = tuple((3 * (r % 3) + r // 3, 1) for r in range(9))
    return tuple(pairs + [_compose(t, swap) for t in pairs])


def group_generators() -> tuple[Map, ...]:
    """The D4 rotation and reflection on A, then on B, and the swap of the parties."""
    return tuple(group_elements()[i] for i in (8, 32, 1, 4, 64))


@lru_cache(maxsize=1)
def vertices() -> tuple[tuple[int, ...], ...]:
    """The 24 pure states: the 16 products, then the 8 PR-type states.

    The PR-type states are the images of the canonical PR box under the
    group, in first-discovery order.
    """
    gbit = [(1, r, s) for r in (1, -1) for s in (1, -1)]
    products = [tuple(x * y for x in a for y in b) for a in gbit for b in gbit]
    pr = (1, 0, 0, 0, 1, 1, 0, 1, -1)
    orbit = dict.fromkeys(_apply(t, pr) for t in group_elements())
    return tuple(products + list(orbit))


def purity(v: tuple[int, ...], a: Fraction | int = 1, b: Fraction | int = 1) -> Fraction:
    """The block-weighted purity c (a |corr|^2 + b |marg|^2) of a normalized state.

    A rescaled correlation entry is twice, and a rescaled marginal entry
    sqrt2 times, the unscaled one, so here it is c (a/4 |corr|^2 + b/2 |marg|^2).
    """
    corr = sum(v[i] * v[i] for i in CORR)
    marg = sum(v[i] * v[i] for i in MARG)
    return SCALE * (a * Fraction(corr, 4) + b * Fraction(marg, 2))


def vertex_purities(a: Fraction | int = 1,
                    b: Fraction | int = 1) -> tuple[list[Fraction], list[Fraction]]:
    """Purities of the 16 product vertices and of the 8 PR-type vertices."""
    p = [purity(v, a, b) for v in vertices()]
    return p[:PRODUCT_COUNT], p[PRODUCT_COUNT:]


def gram_invariance_deviation() -> Fraction:
    """max |T^t G T - G| of the default inner product over the full group.

    G is diagonal, so T^t G T for a signed permutation T is the diagonal
    with G[p_i, p_i] at i: the deviation is the largest change of weight
    under a coordinate's image.
    """
    # The diagonal of G: the purity of each coordinate vector.
    weight = [purity(tuple(int(i == k) for i in range(9))) for k in range(9)]
    return max(abs(weight[p] - weight[i]) for t in group_elements() for i, (p, _) in enumerate(t))


def invariant_forms(ts: tuple[Map, ...]) -> int:
    """Dimension of the space of symmetric 9 x 9 forms X with T^t X T = X for each T of ``ts``.

    For a signed permutation the condition reads X[p_i, p_j] = s_i s_j X[i, j],
    so the maps link index pairs with signs.  A form is fixed by its value on
    one pair of each linked class, and a class that links a pair to itself
    with sign -1 forces 0: the dimension counts the classes without such a
    cycle.
    """
    signs: dict[tuple[int, int], int] = {}
    count = 0
    for start in ((i, j) for i in range(9) for j in range(i, 9)):
        if start in signs:
            continue
        signs[start], stack, consistent = 1, [start], True
        while stack:
            i, j = stack.pop()
            for t in ts:
                (pi, si), (pj, sj) = t[i], t[j]
                image, sign = (min(pi, pj), max(pi, pj)), signs[i, j] * si * sj
                if image not in signs:
                    signs[image] = sign
                    stack.append(image)
                consistent = consistent and signs[image] == sign
        count += consistent
    return count


class ObstructionRecord(NamedTuple):
    """Why no invariant inner product normalizes all boxworld pure states.

    The purities of the two vertex families are linear in the block weights:
    P(product) = c (a + 2 b) and P(PR) = c a with c = 1/3.  Solving for both
    to equal 1 forces b = 0, which violates positivity; the resulting
    degenerate form assigns purity 0 to states besides the maximally mixed
    one, exhibited by ``zero_purity_state``.
    """

    solution_a: Fraction
    solution_b: Fraction
    product_coefficients: tuple[Fraction, Fraction]
    pr_coefficients: tuple[Fraction, Fraction]
    zero_purity_state: tuple[int, ...]
    zero_purity_value: Fraction


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
    orbits = {frozenset(index.get(_apply(t, v)) for t in group_elements()) for v in verts}
    return orbits == {frozenset(range(PRODUCT_COUNT)), frozenset(range(PRODUCT_COUNT, 24))}
