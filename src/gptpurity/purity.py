"""Generalized purity and Pauli maps.

Purity of a state is the squared length of its Bloch vector under the
invariant inner product, normalized so pure states have purity 1 and the
maximally mixed state purity 0.  A Pauli map is a unit-norm linear functional
on the Bloch subspace; a complete set of Paulis is a finite group orbit of
one such map (signs quotiented) whose mean-square values reproduce
purity / (K - 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import grouprep
from . import statespace as ss
from .errors import DegenerateDirectionError, RangeError, UnsupportedSpaceError
from .grouprep import GramMatrix, GroupSampler
from .statespace import SpaceDescriptor

# Purity below which a state counts as maximally mixed: it has no Bloch
# direction, so no Pauli map attains its collision probability.
MIXED_PURITY_FLOOR = 1e-18


def purity(
    space: SpaceDescriptor,
    gram: GramMatrix,
    omega: np.ndarray,
    *,
    norm_tol: float = ss.NORM_TOL,
) -> float:
    """Squared Gram length of the Bloch vector of a normalized state."""
    b = space.bloch(omega, norm_tol=norm_tol)
    return gram.norm_sq(b)


def purity_from_tr2(n: int, tr_sq: float) -> float:
    """Convert the quantum collision value Tr(rho^2) on C^n to purity."""
    return (n * tr_sq - 1.0) / (n - 1.0)


def tr2_from_purity(n: int, p: float) -> float:
    """Inverse conversion: Tr(rho^2) = ((n-1) P + 1) / n."""
    return ((n - 1.0) * p + 1.0) / n


def fixed_purity_state(space: SpaceDescriptor, p0: float, rng: np.random.Generator) -> np.ndarray:
    """A state of purity exactly ``p0``: sqrt(p0) * phi + (1 - sqrt(p0)) * mu.

    ``phi`` is a sampled pure state.  By Bloch linearity and the pure-state
    normalization of the Gram, the mixture has purity t^2 with t = sqrt(p0).
    Note there is no group-invariant measure on a fixed-purity shell for
    p0 < 1; the expected-purity formulas depend only on the purity of the
    initial state, so this mu-interpolation orbit is sufficient (and a test
    verifies initial-state independence of the Monte Carlo mean).
    """
    if not 0.0 <= p0 <= 1.0:
        raise RangeError(f"target purity must lie in [0, 1], got {p0}")
    t = math.sqrt(p0)
    phi = space.sample_pure(rng)
    return t * phi + (1.0 - t) * space.max_mixed


# -- Pauli maps -------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliMap:
    """A unit-Gram-norm linear functional vanishing on the maximally mixed state.

    ``vector`` is the Bloch-space representer X-hat; evaluation on a state is
    the Gram inner product of ``vector`` with the state's Bloch vector.
    """

    space: SpaceDescriptor
    gram: GramMatrix
    vector: np.ndarray
    label: str = ""
    covector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", ss._frozen(np.asarray(self.vector, dtype=float)))
        object.__setattr__(self, "covector", ss._frozen(self.gram.apply(self.vector)))

    def __call__(self, omega: np.ndarray) -> float:
        """Evaluate on a normalized state (coordinates)."""
        return float(self.covector @ (np.asarray(omega, dtype=float) - self.space.max_mixed))

    def evaluate_many(self, states: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of states, shape (m, K)."""
        return (np.asarray(states) - self.space.max_mixed) @ self.covector


@dataclass(frozen=True)
class PauliSet:
    """A complete set of Paulis: a sign-quotiented group orbit of one map."""

    maps: tuple[PauliMap, ...]
    provenance: str

    def __len__(self) -> int:
        return len(self.maps)


def pauli_vectors(space: SpaceDescriptor, gram: GramMatrix, directions: np.ndarray) -> np.ndarray:
    """Normalize each row of a (m, K) stack of directions to a Pauli-map vector.

    A row is projected onto the Bloch subspace (``project_bloch``, O(K)) and
    divided by its Gram norm.
    """
    v = space.project_bloch(directions)
    nsq = gram.norms_sq(v)
    if np.any(nsq < 1e-24):
        raise DegenerateDirectionError("zero direction has no associated Pauli map")
    return v / np.sqrt(nsq)[:, None]


def pauli_from_direction(
    space: SpaceDescriptor, gram: GramMatrix, v: np.ndarray, label: str = ""
) -> PauliMap:
    """Normalize a Bloch direction to a Pauli map: the one-row case of ``pauli_vectors``."""
    vector = pauli_vectors(space, gram, np.asarray(v, dtype=float)[None])[0]
    return PauliMap(space=space, gram=gram, vector=vector, label=label)


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Pauli matrices, e.g. ``"XZ"``."""
    m = _PAULI_1Q[label[0]]
    for ch in label[1:]:
        m = np.kron(m, _PAULI_1Q[ch])
    return m


def _sign_canonical(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-10)
    if len(nz) and v[nz[0]] < 0:
        return -v
    return v


def complete_pauli_set(space: SpaceDescriptor, gram: GramMatrix | None = None) -> PauliSet:
    """The canonical complete set of Paulis for a supported space.

    Quantum k qubits: the 4^k - 1 non-identity Pauli-string maps
    rho -> Tr(sigma rho) / sqrt(2^k - 1), enumerated lexicographically over
    {I, X, Y, Z}^k.  Classical n: the n component read-outs
    p -> p_i - (sum_{j != i} p_j) / (n - 1).  Polygons: the dihedral orbit of
    the first coordinate map, signs quotiented (n maps for odd n, n/2 for
    even n; the square reduces to the two coordinates).
    """
    gram = grouprep.analytic_gram(space) if gram is None else gram
    if space.kind == ss.KIND_QUANTUM:
        n = space.level
        k = n.bit_length() - 1
        if 2**k != n:
            raise UnsupportedSpaceError(
                f"complete Pauli sets need a qubit register; level {n} is not a power of 2"
            )
        # Every string but the leading identity, as one to_coords stack.
        labels = ["".join(letters) for letters in itertools.product("IXYZ", repeat=k)][1:]
        vecs = space.to_coords(math.sqrt(n - 1) / n * np.stack([pauli_string(s) for s in labels]))
        maps = (PauliMap(space=space, gram=gram, vector=v, label=s) for s, v in zip(labels, vecs))
        return PauliSet(maps=tuple(maps), provenance="clifford-orbit")
    if space.kind == ss.KIND_CLASSICAL:
        n = space.level
        maps = []
        for i in range(n):
            vec = np.full(n, -1.0 / n)
            vec[i] = (n - 1.0) / n
            maps.append(PauliMap(space=space, gram=gram, vector=vec, label=f"p{i}"))
        return PauliSet(maps=tuple(maps), provenance="classical")
    if space.kind in (ss.KIND_POLYGON, ss.KIND_BOXWORLD_LOCAL):
        n = space.level
        x1 = np.array([1.0, 0.0])
        seen: dict[bytes, np.ndarray] = {}
        for g in grouprep.dihedral_elements(n):
            d = _sign_canonical(g.T @ x1)
            seen.setdefault((np.round(d, 10) + 0.0).tobytes(), d)
        maps = tuple(
            PauliMap(space=space, gram=gram, vector=np.concatenate([[0.0], d]), label=f"dir{i}")
            for i, d in enumerate(seen.values())
        )
        return PauliSet(maps=maps, provenance="polygon")
    raise UnsupportedSpaceError(f"no complete Pauli set for kind {space.kind!r}")


def purity_via_pauli_set(pset: PauliSet, omega: np.ndarray) -> float | np.ndarray:
    """Purity reconstructed from a complete set: (K-1) * mean of X(omega)^2.

    ``omega`` is one state, or a (m, K) stack with one purity per row; the
    set's stacked covectors act on all of it in one product.
    """
    space = pset.maps[0].space
    covectors = np.stack([x.covector for x in pset.maps])
    vals = (np.asarray(omega, dtype=float) - space.max_mixed) @ covectors.T
    p = (space.K - 1) * np.mean(vals**2, axis=-1)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class PauliAverage:
    """Group average of X(T omega)^2, exact or Monte Carlo."""

    mean: float
    stderr: float
    n_samples: int
    exact: bool


def pauli_haar_average(
    space: SpaceDescriptor,
    sampler: GroupSampler,
    x: PauliMap,
    omega: np.ndarray,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> PauliAverage:
    """Average of (X o T)(omega)^2 over the reversible group.

    Equals purity(omega) / (K - 1) for any Pauli map on an irreducible space.
    Uses the exact finite sum when the sampler enumerates its group, and
    otherwise draws the group elements through ``GroupSampler.draw_blocks``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    omega = np.asarray(omega, dtype=float)
    if sampler.elements is not None:
        states = sampler.elements @ omega
        vals = x.evaluate_many(states) ** 2
        return PauliAverage(mean=float(vals.mean()), stderr=0.0, n_samples=len(vals), exact=True)
    if n_samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {n_samples}")
    # The blocks' values and their concatenation are alive at once.
    ss.check_memory(2 * 8 * n_samples, f"2 arrays of {n_samples} per-sample values")
    vals = np.concatenate(
        [x.evaluate_many(ts @ omega) ** 2 for ts in sampler.draw_blocks(rng, n_samples)]
    )
    return PauliAverage(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
        exact=False,
    )


@dataclass(frozen=True)
class CollisionResult:
    """Best repeat-outcome probability over Pauli measurements."""

    value: float
    optimizer: PauliMap | None


def max_collision_probability(
    space: SpaceDescriptor, gram: GramMatrix, omega: np.ndarray
) -> CollisionResult:
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
        optimizer=pauli_from_direction(space, gram, b, label="state-direction"),
    )
