"""The exact suite layers tied to their float references, space by space and row by row.

In exact coordinates several identities of ``verify pauli-identities``,
``gram-invariance`` and ``classical-subsystem`` hold almost by construction
(the qubit's complete set is sum_i r_i^2 = |r|^2, a monomial map fixes a
monomial form).  What keeps those rows honest is that their data are the
float references' data: every exact state, Gram, Pauli map, witness and group
element, taken to the float coordinates by the change of basis C of its
space (float coordinates = C exact coordinates), equals the reference.
"""

import cmath
import math

import numpy as np
import pytest

from gptpurity import boxworld as bw
from gptpurity import checks
from gptpurity import composite as cm
from gptpurity import grouprep as gr
from gptpurity import purity as pur
from gptpurity import statespace as ss
from gptpurity.errors import RangeError
from gptpurity.statespace import Cyc
from reference import composite as cm_ref
from reference import grouprep as gr_ref
from reference import purity as pur_ref
from reference import statespace as ss_ref

W = cmath.exp(2j * cmath.pi / 3)
# The qutrit's displacement operators D_a = tau^(a1 a2) X^a1 Z^a2, tau = -e^(i pi/3) = w^2.
_X3, _Z3 = np.roll(np.eye(3), 1, axis=0), np.diag([1, W, W * W])
DISPLACEMENTS = [W ** (2 * a1 * a2) * np.linalg.matrix_power(_X3, a1)
                 @ np.linalg.matrix_power(_Z3, a2) for a1 in range(3) for a2 in range(3)]


def value(x) -> complex:
    """An int or a ``Cyc`` as a complex number."""
    if isinstance(x, Cyc):
        r = len(x.c)
        return sum(a * cmath.exp(2j * cmath.pi * k / r) for k, a in enumerate(x.c)) / x.d
    return complex(x)


def vector(v) -> np.ndarray:
    return np.array([value(a) for a in v])


def matrix(t, r) -> np.ndarray:
    """The dense matrix of a monomial map: row i holds zeta^e[i] at column p[i]."""
    m = np.zeros((len(t[0]), len(t[0])), dtype=complex)
    for i, (p, e) in enumerate(zip(*t)):
        m[i, p] = cmath.exp(2j * cmath.pi * e / r)
    return m


def reference(space: ss.Space) -> ss_ref.SpaceDescriptor:
    """The float descriptor of the same kind and level."""
    builder = {ss.KIND_QUANTUM: ss_ref.build_quantum, ss.KIND_CLASSICAL: ss_ref.build_classical,
               ss.KIND_POLYGON: ss_ref.build_polygon,
               ss.KIND_REAL_QUANTUM: ss_ref.build_real_quantum}[space.kind]
    return builder(space.level)


def change_of_basis(space: ss.Space) -> np.ndarray:
    """C with float (Gell-Mann, probability or (1, cos, sin)) coordinates = C exact ones."""
    if space.kind == ss.KIND_CLASSICAL:
        return np.eye(space.level)
    if space.level == 2:  # the qubit and the real qubit: Tr(B rho) = Tr(P rho)/sqrt 2
        return np.eye(len(space.mixed)) / math.sqrt(2)
    if space.kind == ss.KIND_QUANTUM:  # rho = (1/3) sum_a x_a D_a
        basis = reference(space).hermitian_basis
        return np.array([[np.trace(b @ d) for d in DISPLACEMENTS] for b in basis]) / 3
    if space.level == 4:  # x = (u + v)/2, y = (v - u)/2
        return np.array([[1, 0, 0], [0, 0.5, 0.5], [0, -0.5, 0.5]])
    return np.array([[1, 0, 0], [0, 0.5, 0.5], [0, -0.5j, 0.5j]])  # x + i y = z


def float_map(space: ss.Space, t, r) -> np.ndarray:
    c = change_of_basis(space)
    out = c @ matrix(t, r) @ np.linalg.inv(c)
    np.testing.assert_allclose(out.imag, 0, atol=1e-12)
    return out.real


GRAM_SPACES = [ss.QUBIT, ss.QUTRIT, ss.build_classical(3),
               ss.build_classical(5), ss.SQUARE, ss.PENTAGON,
               ss.REAL_QUBIT]
PAULI_SPACES = [ss.QUBIT, ss.build_classical(4), ss.SQUARE,
                ss.PENTAGON]
WITNESS_SPACES = [ss.build_classical(2), ss.build_classical(4), ss.build_classical(8),
                  ss.QUBIT, ss.SQUARE, ss.PENTAGON]


def _name(space: ss.Space) -> str:
    return f"{space.kind}-{space.level}"


# The float unitaries of the exact generators that are not the qubit's Cliffords.
_QUTRIT_FP = np.array([W ** np.outer(np.arange(3), np.arange(3)) / math.sqrt(3),
                       np.diag([1, 1, W])])
_REBIT_HZ = np.array([np.array([[1, 1], [1, -1]]) / math.sqrt(2), [[1, 0], [0, -1]]])


@pytest.mark.parametrize("space", GRAM_SPACES, ids=_name)
def test_exact_generators_are_the_reference_maps(space):
    r, gens = gr.group_generators(space)
    ref = reference(space)
    if space.kind == ss.KIND_QUANTUM and space.level == 2:
        # All 24 Cliffords, in the reference's order; H and S are the generators.
        expected = gr_ref.clifford_elements(ref)
        np.testing.assert_allclose([float_map(space, t, r) for t in gr_ref.closure(gens, r)],
                                   expected, rtol=0, atol=1e-12)
        expected = expected[1:3]
    elif space.kind == ss.KIND_QUANTUM:
        expected = gr_ref.conjugation_matrix(ref, _QUTRIT_FP)
    elif space.kind == ss.KIND_REAL_QUANTUM:
        expected = gr_ref.conjugation_matrix(ref, _REBIT_HZ)
    elif space.kind == ss.KIND_CLASSICAL:
        expected = gr_ref.group_generators(ref)
    else:
        # Rotation 1 and reflection 0 of the float D_n.
        expected = gr_ref.group_elements(ref)[[1, space.level]]
    assert len(gens) == len(expected)
    for t, e in zip(gens, expected):
        np.testing.assert_allclose(float_map(space, t, r), e, rtol=0, atol=1e-12)


@pytest.mark.parametrize("space,order", [(ss.QUBIT, 24), (ss.QUTRIT, 216),
                                         (ss.build_classical(3), 6), (ss.build_classical(5), 120),
                                         (ss.SQUARE, 8), (ss.PENTAGON, 10),
                                         (ss.REAL_QUBIT, 8)],
                         ids=["quantum-2", "quantum-3", "classical-3", "classical-5", "polygon-4",
                              "polygon-5", "real-quantum-2"])
def test_exact_groups_are_the_reference_groups(space, order):
    # The closure of the exact generators is the whole finite group, each
    # element a Gram-orthogonal map of the float coordinates, and for the
    # enumerable groups exactly the reference's element stack.
    r, gens = gr.group_generators(space)
    group = gr_ref.closure(gens, r)
    assert len(group) == order
    maps = np.array([float_map(space, t, r) for t in group])
    g = gr_ref.analytic_gram(reference(space)).matrix
    np.testing.assert_allclose(maps.swapaxes(1, 2) @ g @ maps - g, 0, atol=1e-12)
    if space.kind in (ss.KIND_CLASSICAL, ss.KIND_POLYGON):
        expected = gr_ref.group_elements(reference(space))
        assert {(m.round(12) + 0.0).tobytes() for m in maps} == {
            (m.round(12) + 0.0).tobytes() for m in expected}


@pytest.mark.parametrize("space", GRAM_SPACES, ids=_name)
def test_exact_grams_are_the_reference_grams(space):
    c = change_of_basis(space)
    g = gr_ref.analytic_gram(reference(space)).matrix
    exact = np.zeros((len(space.mixed),) * 2, dtype=complex)
    for (i, j), w in space.gram:
        exact[i, j] = value(w)
    np.testing.assert_allclose(exact, c.T @ g @ c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c @ vector(space.mixed), reference(space).max_mixed, atol=1e-12)


@pytest.mark.parametrize("space", list({_name(s): s for s in WITNESS_SPACES + PAULI_SPACES}
                                        .values()), ids=_name)
def test_exact_states_are_the_reference_states(space):
    c = change_of_basis(space)
    states = np.array([c @ vector(v) for v in space.pures])
    np.testing.assert_allclose(states, gr_ref.orbit_pures(reference(space)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", PAULI_SPACES, ids=_name)
def test_exact_pauli_sets_and_purities_are_the_reference_ones(space):
    # The rows complete-set-* and collision-*: the same maps, and the same
    # purities and map values on the suite's states, the pure orbit and its
    # midpoints.
    ref, c = reference(space), change_of_basis(space)
    gram = gr_ref.analytic_gram(ref)
    pset = pur_ref.complete_pauli_set(ref, gram)
    exact = pur.complete_pauli_set(space)
    assert len(exact) == len(pset)
    # X(omega) = (G x) . b exactly, and covector . (C b) in floats: the same maps, up to
    # their order (the qubit's exact set is z, x, y, the float one x, y, z).
    exact = sorted(tuple(np.round(vector(ss.covector(space, x)), 12) + 0) for x in exact)
    assert exact == sorted(tuple(np.round(c.T @ x.covector, 12) + 0) for x in pset)
    states = ss.with_midpoints(space.pures)
    floats = np.array([(c @ vector(v)).real for v in states])
    np.testing.assert_allclose(floats, ss_ref.with_midpoints(gr_ref.orbit_pures(ref)), atol=1e-12)
    np.testing.assert_allclose([value(pur.purity(space, v)) for v in states],
                               gram.norms_sq(ref.bloch(floats)), rtol=0, atol=1e-12)
    assert [float(d) for d in pur.pauli_identity_deviations(space, states)] == [0.0, 0.0]
    assert max(pur_ref.pauli_identity_deviations(ref, floats)) <= 1e-12


def test_exact_haar_average_is_the_reference_average():
    # haar-average-qubit: the same state and Pauli map, and the suite's projection over H
    # and S is the plain mean of X(T omega)^2 over the 24 maps of their closure.
    qubit, ref = ss.QUBIT, ss_ref.build_quantum(2)
    omega = vector(pur.OFF_AXIS_QUBIT).real / math.sqrt(2)
    np.testing.assert_allclose(omega, [c / math.sqrt(2) for c in (1.0, 0.48, 0.6, 0.64)],
                               atol=1e-15)
    x = pur.complete_pauli_set(qubit)[0]
    group = gr_ref.closure(gr.clifford_generators(1), 2)
    assert len(group) == 24
    cov = ss.covector(qubit, x)
    values = [ss.dot(cov, ss.bloch(qubit, gr.apply(t, pur.OFF_AXIS_QUBIT, 2))) for t in group]
    avg = sum(v * v for v in values) * ss.rational(1, 24)
    assert avg == ss.rational(1, 3) == pur.purity(qubit, pur.OFF_AXIS_QUBIT) * ss.rational(1, 3)
    row = {c.name: c for c in checks.run_suite("pauli-identities", 0, 2)}["haar-average-qubit"]
    assert (row.value, row.bound) == (0.0, 0.0)
    x_ref = pur_ref.complete_pauli_set(ref)[0]
    assert abs(pur_ref.pauli_haar_average(gr_ref.clifford_elements(ref), x_ref, omega)
               - value(avg).real) <= 1e-15


@pytest.mark.parametrize("space", WITNESS_SPACES, ids=_name)
def test_exact_witnesses_are_the_reference_witnesses(space):
    # The rows centered-* and pentagon-not-centered.
    ref, c = reference(space), change_of_basis(space)
    witness = cm_ref.capacity_witness(ref)
    states = cm.capacity_witness(space)
    np.testing.assert_allclose([c @ vector(v) for v in states], witness.states, atol=1e-12)
    center, off = cm.centered_deviations(space, states)
    report = cm_ref.verify_centered_dynamical(ref, gr_ref.analytic_gram(ref), witness)
    # The centers differ by coordinates; the Gram products do not.
    assert (center == 0) == witness.centered == (report.center_deviation <= 1e-12)
    assert abs(float(off) - report.gram_offdiag_deviation) <= 1e-12


@pytest.mark.parametrize("space", GRAM_SPACES, ids=_name)
def test_character_count_is_the_reference_elimination(space):
    # gram-uniqueness-*: the generator count, the same count over the whole
    # finite group, the characters over that group and the float elimination
    # over the dense subgroup's generators all find the unit direction and
    # the Gram, and nothing else.
    r, gens = gr.group_generators(space)
    group = gr_ref.closure(gens, r)
    assert gr.invariant_form_count(gens, r) == gr.invariant_form_count(group, r) == 2
    assert gr_ref.character_form_count(group, r) == 2
    assert gr_ref.invariant_form_dimension(gr_ref.group_generators(reference(space))) == 2


@pytest.mark.parametrize("space,index,count,symmetric", [
    (ss.QUBIT, 1, 6, 4),
    (ss.build_classical(5), 0, 17, 11),
], ids=["qubit-S", "classical-5-transposition"])
def test_character_count_sees_a_reducible_subgroup(space, index, count, symmetric):
    # The qubit's S rotates about z: it fixes the 4 forms on (unit, z) and, on
    # (x, y), x^2 + y^2 and the antisymmetric x y - y x.  The transposition
    # (0 1) fixes 4^2 + 1 forms on five outcomes, 4 trivial and 1 sign
    # components.  The characters over the generated group agree, and the float
    # elimination over the same one map finds the symmetric ones among them.
    r, gens = gr.group_generators(space)
    one = gens[index]
    group = gr_ref.closure((one,), r)
    assert gr.invariant_form_count((one,), r) == gr.invariant_form_count(group, r) == count
    assert gr_ref.character_form_count(group, r) == count
    assert gr_ref.invariant_form_dimension(float_map(space, one, r)[None]) == symmetric


def _form(n: int) -> tuple:
    """A rational n x n form with no symmetry: entry (k, l) is
    (k^2 - 3 l + 2 k l - 1)/(1 + (k + 2 l) mod 5)."""
    return tuple(((k, l), ss.rational(k * k - 3 * l + 2 * k * l - 1, 1 + (k + 2 * l) % 5))
                 for k in range(n) for l in range(n))


def _dense(entries, n: int) -> list:
    entries = dict(entries)
    return [entries.get((k, l), 0) for k in range(n) for l in range(n)]


# Each space's group generators, bipartite boxworld's and the two-qubit Cliffords', then
# each generator of a space alone.
TWIRL_INPUTS = [pytest.param(*gr.group_generators(space), id=_name(space))
                for space in GRAM_SPACES] + [
    pytest.param(2, bw.GENERATORS, id="boxworld"),
    pytest.param(2, gr.clifford_generators(2), id="clifford-2")] + [
    pytest.param(gr.group_generators(space)[0], (t,), id=f"{_name(space)}-{i}")
    for space in GRAM_SPACES for i, t in enumerate(gr.group_generators(space)[1])]


@pytest.mark.parametrize("r,gens", TWIRL_INPUTS)
def test_twirl_is_the_plain_mean_over_the_closure(r, gens):
    # Pi(Q) from the pair orbits of the generators against (1/|G|) sum_T T^t Q T over
    # the enumerated group, exactly.  The full groups fix real forms only, so every
    # exponent of their free orbits is 0; the qutrit's phase gate alone (r = 3) has free
    # orbits with exponents 1 and 2, and tests the conjugate phase zeta^(-x) of the
    # orbit mean.
    n = len(gens[0][0])
    form, group = _form(n), gr_ref.closure(gens, r)
    twirled = gr.twirl(form, gens, r)
    assert _dense(twirled, n) == _dense(gr_ref.form_mean(form, group, r), n)
    assert any(w != 0 for _, w in twirled)
    # A fixed form is its own projection.
    assert _dense(gr.twirl(twirled, gens, r), n) == _dense(twirled, n)


def test_twirl_over_a_subgroup_is_not_the_group_mean():
    # Negative control: S alone rotates about z and fixes e_z e_z^t, while the
    # Cliffords spread it evenly over x, y and z.
    ez = (((3, 3), 1),)
    h_s = gr.clifford_generators(1)
    full = _dense(gr_ref.form_mean(ez, gr_ref.closure(h_s, 2), 2), 4)
    assert _dense(gr.twirl(ez, h_s, 2), 4) == full
    assert full[5] == full[10] == full[15] == ss.rational(1, 3)
    assert _dense(gr.twirl(ez, h_s[1:], 2), 4) != full


# Each space's Gram and group generators, then bipartite boxworld's.
INVARIANCE_INPUTS = [pytest.param(space.gram, *gr.group_generators(space), id=_name(space))
                     for space in GRAM_SPACES] + [
    pytest.param(bw.GRAM, 2, bw.GENERATORS, id="boxworld")]


@pytest.mark.parametrize("gram,r,gens", INVARIANCE_INPUTS)
def test_a_perturbed_exact_gram_fails_its_invariance_check(gram, r, gens):
    # The weight of the first Bloch coordinate's square moved by 1e-6: no
    # generator set of the group leaves that form invariant.
    assert gr.invariance_deviation(gram, gens, r) == 0
    gram = dict(gram)
    perturbed = tuple({**gram, (1, 1): gram.get((1, 1), 0) + ss.rational(1, 10**6)}.items())
    assert gr.invariance_deviation(perturbed, gens, r) > 1e-7


def test_exact_builders_refuse_what_they_cannot_build():
    # A classical space needs two outcomes, and only the built-in spaces have generators.
    with pytest.raises(RangeError,
                       match="^classical outcome count must be >= 2, got 1$"):
        ss.build_classical(1)
    with pytest.raises(RangeError, match="^no finite group for quantum-4$"):
        gr.group_generators(ss.QUBIT._replace(level=4))


def test_cyclotomic_arithmetic_is_exact():
    zeta = Cyc.root(5, 1)
    golden = 1 + zeta + Cyc.root(5, 4)  # 1 + 2 cos(2 pi/5), the golden ratio
    assert golden * golden == golden + 1
    assert abs(value(golden) - (1 + math.sqrt(5)) / 2) <= 1e-15
    assert golden * (golden - 1) == 1 and golden * ss.HALF * 2 == golden
    assert sum(Cyc.root(5, k) for k in range(5)) == 0
    assert abs(golden - golden) == 0.0 and abs(zeta) == pytest.approx(1.0, abs=1e-15)
    third = Cyc.root(3, 1) * ss.rational(1, 3)
    assert third * 3 == Cyc.root(3, 1) and third != Cyc.root(3, 1)
    # A quotient by a negative rational keeps a positive denominator.
    quotient = ss.rational(-2, 3) / ss.rational(-2, 9)
    assert quotient == 3 and quotient.d == 1 and abs(ss.rational(1, 3) / -2) == 1 / 6
