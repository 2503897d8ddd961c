"""Purity in bipartite boxworld (two gbits under the no-signalling polytope).

The bipartite boxworld state space is not transitive: no reversible
transformation connects pure product states with PR-type states, so the
transitive-space purity construction does not apply.  One can still pick an
invariant inner product on the Bloch subspace; the reversible group leaves
two blocks invariant (the correlation block and the two marginal blocks), so
the product carries independent weights a and b.  With the default weights
a = b = 1 and overall constant c = 1/3, the pure product states have purity
1 while every PR-type state has purity 1/3, and no choice of positive
weights can normalize both families to 1 simultaneously.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import grouprep
from . import statespace as ss
from .errors import RangeError
from .statespace import SpaceDescriptor

# Flat 9-coordinate layout: index 3*i + j holds the coefficient of e_i (x) e_j,
# with local index 0 the normalization direction.
_CORR_IDX = np.array([4, 5, 7, 8])  # A-hat (x) B-hat block
_MARG_IDX = np.array([1, 2, 3, 6])  # mu (x) B-hat and A-hat (x) mu blocks


class BoxworldGram(NamedTuple):
    """Block-weighted invariant inner product on the boxworld Bloch subspace.

    ``a`` weighs the correlation block, ``b`` the two marginal blocks, and
    ``c`` is the overall constant; a genuine inner product needs a, b > 0.
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0 / 3.0

    def matrix(self) -> np.ndarray:
        d = np.zeros(9)
        d[_CORR_IDX] = self.a
        d[_MARG_IDX] = self.b
        return self.c * np.diag(d)


DEFAULT_GRAM = BoxworldGram()


def boxworld_space() -> SpaceDescriptor:
    """The cached bipartite boxworld descriptor."""
    return ss.build_boxworld_bipartite()


def boxworld_purity(omega: np.ndarray, gram: BoxworldGram = DEFAULT_GRAM) -> float:
    """c <omega-hat, omega-hat> with the block-weighted inner product."""
    space = boxworld_space()
    omega = np.asarray(omega, dtype=float)
    ss.validate_state(space, omega)
    b = omega - space.max_mixed
    return float(b @ gram.matrix() @ b)


def vertex_purities(gram: BoxworldGram = DEFAULT_GRAM) -> tuple[np.ndarray, np.ndarray]:
    """Purities of the 16 product vertices and of the 8 PR-type vertices."""
    space = boxworld_space()
    blochs = space.vertices - space.max_mixed
    p = np.einsum("vi,ij,vj->v", blochs, gram.matrix(), blochs)
    return p[: ss.BOXWORLD_PRODUCT_COUNT], p[ss.BOXWORLD_PRODUCT_COUNT :]


def gram_invariance_deviation(gram: BoxworldGram = DEFAULT_GRAM) -> float:
    """max |T^t G T - G| over the full 128-element reversible group."""
    ts = grouprep.group_elements(boxworld_space())
    return grouprep.invariance_deviation(gram.matrix(), ts)


class ObstructionRecord(NamedTuple):
    """Why no invariant inner product normalizes all boxworld pure states.

    The purities of the two vertex families are linear in the block weights:
    P(product) = c (a + 2 b) and P(PR) = c a with c = 1/3.  Solving for both
    to equal 1 forces b = 0, which violates positivity; the resulting
    degenerate form assigns purity 0 to states besides the maximally mixed
    one, exhibited by ``zero_purity_state``.
    """

    solution_a: float
    solution_b: float
    violated_constraint: str
    product_coefficients: tuple[float, float]
    pr_coefficients: tuple[float, float]
    zero_purity_state: np.ndarray
    zero_purity_value: float


def boxworld_normalization_obstruction() -> ObstructionRecord:
    """Solve for weights giving every pure state purity 1; report the failure.

    The 2x2 linear system over the explicit vertex coordinates has the unique
    solution (a, b) = (3, 0), so simultaneous normalization requires a
    degenerate (b = 0) form.
    """
    space = boxworld_space()
    c = DEFAULT_GRAM.c
    prod_bloch = space.vertices[0] - space.max_mixed
    pr_bloch = space.vertices[ss.BOXWORLD_PRODUCT_COUNT] - space.max_mixed
    rows = []
    for bl in (prod_bloch, pr_bloch):
        corr = float(np.sum(bl[_CORR_IDX] ** 2))
        marg = float(np.sum(bl[_MARG_IDX] ** 2))
        rows.append((c * corr, c * marg))
    system = np.array(rows)
    a_sol, b_sol = np.linalg.solve(system, np.ones(2))
    degenerate = BoxworldGram(a=a_sol, b=b_sol)
    witness = np.kron(np.array([1.0, 0.0, 0.0]), ss._GBIT_VERTICES[0])
    value = float(
        (witness - space.max_mixed) @ degenerate.matrix() @ (witness - space.max_mixed)
    )
    return ObstructionRecord(
        solution_a=float(a_sol),
        solution_b=float(b_sol),
        violated_constraint="b > 0",
        product_coefficients=tuple(system[0]),
        pr_coefficients=tuple(system[1]),
        zero_purity_state=witness,
        zero_purity_value=value,
    )


def transitivity_obstruction_witness(gram: BoxworldGram = DEFAULT_GRAM) -> bool:
    """True when purity separates the two vertex families over the full group.

    Every group element maps product vertices to product-purity values and
    PR vertices to PR-purity values, so no element can connect the families;
    this is the numerical witness that bipartite boxworld is not transitive.
    """
    prod_p, pr_p = vertex_purities(gram)
    if abs(prod_p.mean() - pr_p.mean()) < 1e-6:
        raise RangeError("the chosen gram does not separate the vertex families")
    space = boxworld_space()
    ts = grouprep.group_elements(space)
    # The first product and the first PR vertex, moved by every element: (128, 2, 9).
    b = space.vertices[[0, ss.BOXWORLD_PRODUCT_COUNT]] @ ts.transpose(0, 2, 1) - space.max_mixed
    p = np.einsum("gvk,kl,gvl->gv", b, gram.matrix(), b)
    return not np.any(np.abs(p - [prod_p[0], pr_p[0]]) > 1e-9)
