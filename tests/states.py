"""Test references that no command runs: cone tests, one Pauli map on one state and
the best collision probability, random mixed states, tensor composites and their
P(phi_A (x) mu_B) constant, the dense isometry route of a quantum face, and the
float descriptor of bipartite boxworld.

A quantum composite is a dense reference: its basis is the Kronecker product of
the parts' ``hermitian_basis`` stacks, and its coordinates are einsums over it.
The boxworld descriptor, its 128 group elements and its block-weighted Gram are
in the unscaled gbit basis (1, x, y), the reference for the exact ``boxworld``.
Its gbit, with pure states (1, +-1/sqrt2, +-1/sqrt2), is the square
``build_polygon(4)`` turned by pi/4."""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from gptpurity.errors import GptPurityError, UnsupportedSpaceError, check_memory
from gptpurity.formulas import _check_purity_on_face
from reference import InconsistencyError, InvalidProbeError, NormalizationError, statespace as ss
from reference.purity import MIXED_PURITY_FLOOR, PauliMap, pauli_vectors

import haar

CONE_TOL = 1e-9


class ConeError(GptPurityError, ValueError):
    """A vector fails the cone (positivity) test of its space."""


def polygon_effects(n):
    """Edge covectors of the regular n-gon: x cos(phi_k) + y sin(phi_k) <= u cos(pi/n)."""
    phi = (2 * np.arange(n) + 1) * np.pi / n
    return np.column_stack([np.full(n, math.cos(math.pi / n)), -np.cos(phi), -np.sin(phi)])


def unit(space, x):
    """Evaluate the order unit on ``x``."""
    return float(space.order_unit @ np.asarray(x, dtype=float))


def cone_contains(space, x):
    """Membership test for the cone of unnormalized states, up to ``CONE_TOL``."""
    x = np.asarray(x, dtype=float)
    if space.kind == ss.KIND_CLASSICAL:
        return bool(np.all(x >= -CONE_TOL))
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        eigs = np.linalg.eigvalsh(space.to_matrix(x))
        return bool(np.all(eigs >= -CONE_TOL))
    if space.kind == ss.KIND_POLYGON:
        return bool(np.all(polygon_effects(space.level) @ x >= -CONE_TOL))
    if space.kind == KIND_BOXWORLD_BIPARTITE:
        return bool(np.all(BOXWORLD_EFFECTS @ x >= -CONE_TOL))
    raise UnsupportedSpaceError(f"no cone test for kind {space.kind!r}")


def validate_state(space, omega):
    """Raise unless ``omega`` is a normalized state of ``space``, up to ``statespace.NORM_TOL``."""
    omega = np.asarray(omega, dtype=float)
    if abs(unit(space, omega) - 1.0) > ss.NORM_TOL:
        raise NormalizationError(f"order-unit value {unit(space, omega)!r} != 1")
    if not cone_contains(space, omega):
        raise ConeError("state fails the cone test")


def pauli_value(x, omega):
    """A Pauli map evaluated on one normalized state (coordinates)."""
    return float(x.covector @ (np.asarray(omega, dtype=float) - x.space.max_mixed))


class CollisionResult(NamedTuple):
    """Best repeat-outcome probability over Pauli measurements."""

    value: float
    optimizer: PauliMap | None


def max_collision_probability(space, gram, omega):
    """Maximum probability that two identically prepared copies agree.

    Equals (1 + purity) / 2, attained by the Pauli map along the state's own
    Bloch direction; for the maximally mixed state every Pauli gives 1/2 and
    the optimizer is undefined.
    """
    b = space.bloch(omega)
    p = gram.norm_sq(b)
    if p < MIXED_PURITY_FLOOR:
        return CollisionResult(value=0.5, optimizer=None)
    return CollisionResult(
        value=0.5 * (1.0 + p),
        optimizer=PauliMap(space, gram, pauli_vectors(space, gram, b[None])[0]),
    )


def random_mixtures(space, count, rng):
    """Random convex mixtures of K+1 sampled pure states, shape (count, K)."""
    pures = haar.sample_pures(space, rng, space.K + 1)
    weights = rng.dirichlet(np.ones(len(pures)), size=count)
    return np.einsum("mi,ik->mk", weights, pures)


# -- tensor composites -------------------------------------------------------------------


class CompositeDescriptor(NamedTuple):
    """A bipartite composite with K_AB = K_A * K_B.

    ``joint`` is a full SpaceDescriptor whose coordinate basis is the tensor
    product of the local bases; the flat index of the local pair (i, j) is
    ``i * K_B + j``.
    """

    part_a: ss.SpaceDescriptor
    part_b: ss.SpaceDescriptor
    joint: ss.SpaceDescriptor


@dataclass(frozen=True, eq=False)
class DenseJoint(ss.SpaceDescriptor):
    """A quantum joint that holds its (K, n, n) Kronecker-product basis."""

    basis: np.ndarray | None = None

    @property
    def hermitian_basis(self):
        return self.basis

    def to_coords(self, matrix):
        return np.einsum("kij,...ji->...k", self.basis, np.asarray(matrix)).real

    def to_matrix(self, coords):
        return np.einsum("...k,kij->...ij", np.asarray(coords), self.basis)


def compose(a, b):
    """Tensor composite of two quantum or two classical spaces.

    Mixed kinds, polygons and boxworld have no supported transitive
    tomographic composite.  A quantum joint holds its dense basis, of
    K_A K_B n^2 complex entries for n = n_A n_B levels.
    """
    if a.kind != b.kind or a.kind not in (ss.KIND_QUANTUM, ss.KIND_CLASSICAL):
        raise UnsupportedSpaceError(
            f"no transitive tomographic composite for kinds {a.kind!r} x {b.kind!r}"
        )
    if a.kind == ss.KIND_CLASSICAL:
        return CompositeDescriptor(part_a=a, part_b=b, joint=ss.build_classical(a.N * b.N))
    n, k = a.level * b.level, a.K * b.K
    check_memory(16 * k * n * n, f"the dense {k}-element basis of the joint quantum space")
    basis = np.einsum("aij,bkl->abikjl", a.hermitian_basis, b.hermitian_basis)
    joint = DenseJoint(
        kind=ss.KIND_QUANTUM,
        K=k,
        N=n,
        order_unit=np.kron(a.order_unit, b.order_unit),
        max_mixed=np.kron(a.max_mixed, b.max_mixed),
        level=n,
        basis=ss._frozen(basis.reshape(k, n, n)),
    )
    return CompositeDescriptor(part_a=a, part_b=b, joint=joint)


def marginal_a(comp, omega):
    """Reduced state on A: contraction of the B slot with B's order unit."""
    c = np.asarray(omega, dtype=float).reshape(comp.part_a.K, comp.part_b.K)
    return c @ comp.part_b.order_unit


def reference_pure(space):
    """A fixed pure state of ``space``: |0><0|, the first outcome or the first vertex."""
    if space.kind in (ss.KIND_QUANTUM, ss.KIND_REAL_QUANTUM):
        m = np.zeros((space.level, space.level))
        m[0, 0] = 1.0
        return space.to_coords(m)
    if space.kind == ss.KIND_CLASSICAL:
        e = np.zeros(space.K)
        e[0] = 1.0
        return e
    if space.vertices is not None:
        return np.array(space.vertices[0])
    raise UnsupportedSpaceError(f"no reference pure state for kind {space.kind!r}")


class PurityPhiMu(NamedTuple):
    """The quantity P(phi_A (x) mu_B), numerically and in closed form."""

    numeric: float
    closed_form: float


def purity_pure_times_maxmixed(comp, gram_ab, tol=1e-6):
    """Purity of (pure on A) (x) (maximally mixed on B) under the joint Gram.

    For composites carrying a composite classical subsystem this equals
    (N_A - 1)/(N_A N_B - 1), the lemma behind ``formulas.predict_general``;
    a mismatch beyond ``tol`` raises.  ``gram_ab`` is a ``GramMatrix`` or a
    dense K x K array such as ``haar.invariant_gram``'s.
    """
    b = np.kron(reference_pure(comp.part_a), comp.part_b.max_mixed) - comp.joint.max_mixed
    numeric = float(b @ gram_ab @ b) if isinstance(gram_ab, np.ndarray) else gram_ab.norm_sq(b)
    closed = (comp.part_a.N - 1.0) / (comp.part_a.N * comp.part_b.N - 1.0)
    if abs(numeric - closed) > tol:
        raise InconsistencyError(
            f"P(phi (x) mu) = {numeric!r} disagrees with closed form {closed!r}"
        )
    return PurityPhiMu(numeric=numeric, closed_form=closed)


# -- the dense isometry route of a quantum face --------------------------------------------


def isometry(n, sign):
    """The n^2 x N_S orthonormal columns V spanning the face, counted before they are built.

    The face is the symmetric (``sign`` +1) or antisymmetric (-1) subspace
    of C^n (x) C^n, of dimension N_S = n(n + sign)/2.  Column k, for the
    k-th pair i <= j (i < j when antisymmetric), is |ii> or
    (|ij> + sign |ji>)/sqrt 2.
    """
    n_s = n * (n + sign) // 2
    check_memory(8 * n * n * n_s, f"the isometry of a {n_s}-dimensional subspace of C^{n * n}")
    i, j = np.triu_indices(n, 0 if sign == 1 else 1)
    k = np.arange(n_s)
    v = np.zeros((n, n, n_s))
    v[i, j, k] = np.where(i == j, 1.0, math.sqrt(0.5))
    v[j, i, k] = sign * v[i, j, k]
    return v.reshape(n * n, n_s)


def face_composite(n):
    """The composite descriptor of a face's two n-level quantum parts."""
    return compose(ss.build_quantum(n), ss.build_quantum(n))


def mu_face(n, sign):
    """The face-maximally-mixed state V V^dagger / N_S in joint coordinates."""
    v = isometry(n, sign)
    return face_composite(n).joint.to_coords(v @ v.T / v.shape[1])


def face_bloch_projector(n, sign, m):
    """Orthogonal projection of a traceless Hermitian matrix onto the face span.

    pi M pi - pi Tr(pi M pi) / Tr(pi) for pi = V V^dagger; idempotent and self-adjoint
    with respect to the invariant inner product on the joint Bloch space.
    """
    v = isometry(n, sign)
    pi = v @ v.T
    pmp = pi @ np.asarray(m) @ pi
    return pmp - pi * (np.trace(pmp) / v.shape[1])


def default_probe(n):
    """(|1><1| - |2><2|) / sqrt(2) as a dense n x n matrix."""
    e = np.zeros((n, n))
    e[0, 0] = 1.0 / math.sqrt(2)
    e[1, 1] = -1.0 / math.sqrt(2)
    return e


def qface_by_isometry(n, sign, e_a, tr_purity_global):
    """(value, ingredient) of the face prediction, with Tr[(pi (E_A (x) I) pi)^2] taken as
    |V^dagger (E_A (x) I) V|_F^2 by two dense products."""
    e_a = np.asarray(e_a)
    if e_a.shape != (n, n) or not np.all(np.abs(e_a - e_a.conj().T) <= 1e-8):
        raise InvalidProbeError(f"probe must be a Hermitian {n} x {n} matrix")
    if not (abs(np.trace(e_a)) <= 1e-8 and abs(np.trace(e_a @ e_a) - 1.0) <= 1e-8):
        raise InvalidProbeError("probe must satisfy Tr E_A = 0 and Tr E_A^2 = 1")
    n_s = n * (n + sign) // 2
    _check_purity_on_face(n_s, tr_purity_global)
    if n_s == 1:
        return 1.0 / n, 0.0
    v = isometry(n, sign)
    check_memory(16 * n_s * (n * n + n_s), f"the probe's action on a {n_s}-dimensional face")
    probe = v.T @ (e_a @ v.reshape(n, -1)).reshape(v.shape)
    ingredient = float(np.vdot(probe, probe).real)
    value = 1.0 / n + (n**2 - 1) / (n_s**2 - 1) * ingredient * (tr_purity_global - 1.0 / n_s)
    return value, ingredient


# -- the float bipartite boxworld ----------------------------------------------------------

KIND_BOXWORLD_BIPARTITE = "boxworld-bipartite"
BOXWORLD_PRODUCT_COUNT = 16
# The local gbit's pure states, and its extremal effects Y, u - Y, Z, u - Z.
GBIT_VERTICES = np.array(
    [[1.0, r / math.sqrt(2), s / math.sqrt(2)] for r in (1, -1) for s in (1, -1)]
)
GBIT_EFFECTS = np.array(
    [
        [0.5, 1 / math.sqrt(2), 0.0],
        [0.5, -1 / math.sqrt(2), 0.0],
        [0.5, 0.0, 1 / math.sqrt(2)],
        [0.5, 0.0, -1 / math.sqrt(2)],
    ]
)
# The products of local extremal effects: the facets of the bipartite cone.
BOXWORLD_EFFECTS = np.stack([np.kron(e, f) for e in GBIT_EFFECTS for f in GBIT_EFFECTS])
# Flat 9-coordinate layout: index 3*i + j holds the coefficient of e_i (x) e_j,
# with local index 0 the normalization direction.
_CORR_IDX = np.array([4, 5, 7, 8])  # A-hat (x) B-hat block
_MARG_IDX = np.array([1, 2, 3, 6])  # mu (x) B-hat and A-hat (x) mu blocks


def boxworld_pr_state():
    """The canonical PR-box state, flattened row-major from its 3x3 matrix form."""
    w = np.zeros((3, 3))
    w[0, 0] = 1.0
    w[1, 1] = w[1, 2] = w[2, 1] = 0.5
    w[2, 2] = -0.5
    return w.ravel()


def lift_plane(g):
    """Lift a 2x2 Bloch-plane symmetry, or each of a (..., 2, 2) stack, to the
    3-dim ambient coordinates."""
    t = np.tile(np.eye(3), (*np.shape(g)[:-2], 1, 1))
    t[..., 1:, 1:] = g
    return t


def gbit_symmetries():
    """The eight 2x2 orthogonal matrices of the square's dihedral group D4.

    All entries are exactly 0 or +-1 (rotations by multiples of pi/2 and
    reflections through the axes and diagonals).
    """
    rotations = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]
    reflections = [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[0, -1], [-1, 0]]]
    return np.array(rotations + reflections, dtype=float)


def _pr_orbit():
    """Orbit of the PR state under local D4 x D4; eight distinct states."""
    w = boxworld_pr_state().reshape(3, 3)
    seen = {}
    for ga in gbit_symmetries():
        for gb in gbit_symmetries():
            v = lift_plane(ga) @ w @ lift_plane(gb).T
            seen.setdefault(np.round(v, 12).tobytes(), v.ravel())
    return np.stack(list(seen.values()))


@lru_cache(maxsize=1)
def build_boxworld_bipartite():
    """Two gbits under the maximal (no-signalling) tensor product.

    K = 9.  Coordinates are the row-major entries of the 3x3 coefficient
    matrix over the local bases, so coordinate 0 is the normalization.  The
    24 pure states are the 16 products first, then the 8 PR-type states (the
    local-D4 orbit of the canonical PR state).  The cone test checks
    nonnegativity of all products of extremal local effects.
    """
    products = np.stack([np.kron(a, b) for a in GBIT_VERTICES for b in GBIT_VERTICES])
    pr = _pr_orbit()
    assert len(pr) == 8
    order_unit = np.zeros(9)
    order_unit[0] = 1.0
    return ss.SpaceDescriptor(
        kind=KIND_BOXWORLD_BIPARTITE,
        K=9,
        N=4,
        order_unit=order_unit,
        max_mixed=order_unit.copy(),
        level=len(products) + len(pr),
        vertices=np.vstack([products, pr]),
    )


def swap_operator(d):
    """Swap of the two tensor factors of C^d (x) C^d."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[d * j + i, d * i + j] = 1.0
    return s


@lru_cache(maxsize=1)
def boxworld_group_elements():
    """All 128 reversible transformations of bipartite boxworld.

    These are the local pairs G_A (x) G_B with G in D4 on each side (G_A
    major), then each of those composed with the swap of the two parties.
    """
    g = lift_plane(gbit_symmetries())
    pairs = (g[:, None, :, None, :, None] * g[None, :, None, :, None, :]).reshape(64, 9, 9)
    return np.concatenate([pairs, pairs @ swap_operator(3)])


def boxworld_generators():
    """The D4 rotation and reflection on A, then on B, and the swap of the parties:
    elements 8, 32, 1, 4 and 64 of ``boxworld_group_elements``."""
    return boxworld_group_elements()[[8, 32, 1, 4, 64]]


def group_sampler(space):
    """``haar.sampler_for`` a built-in space, or a gather over the boxworld descriptor's group."""
    if space.kind == KIND_BOXWORLD_BIPARTITE:
        return haar.gather_sampler(space, boxworld_group_elements())
    return haar.sampler_for(space)


class BoxworldGram(NamedTuple):
    """Block-weighted invariant inner product on the boxworld Bloch subspace.

    ``a`` weighs the correlation block, ``b`` the two marginal blocks, and
    ``c`` is the overall constant; a genuine inner product needs a, b > 0.
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0 / 3.0

    def matrix(self):
        d = np.zeros(9)
        d[_CORR_IDX] = self.a
        d[_MARG_IDX] = self.b
        return self.c * np.diag(d)


def boxworld_purity(omega, gram=BoxworldGram()):
    """c <omega-hat, omega-hat> with the block-weighted inner product."""
    space = build_boxworld_bipartite()
    omega = np.asarray(omega, dtype=float)
    validate_state(space, omega)
    b = omega - space.max_mixed
    return float(b @ gram.matrix() @ b)
