"""Invariant purity and randomization experiments on convex state spaces."""

from . import boxworld, composite, errors, faces, grouprep, purity, randomize, statespace
from .boxworld import (
    BoxworldGram,
    boxworld_normalization_obstruction,
    boxworld_purity,
    boxworld_space,
)
from .composite import (
    ClassicalSubsystemWitness,
    CompositeDescriptor,
    capacity_witness,
    compose,
    marginal_a,
    marginal_b,
    partial_trace,
    product_state,
    purity_pure_times_maxmixed,
    verify_centered_dynamical,
)
from .errors import GptPurityError
from .faces import (
    FaceDescriptor,
    antisym_face,
    coin_with_record,
    estimate_face_local_purity,
    face_bloch_projector,
    predict_qface,
    predict_symm,
    sym_face,
)
from .grouprep import (
    GramMatrix,
    GroupSampler,
    analytic_gram,
    check_irreducible,
    clifford_unitaries,
    frame_potential,
    haar_unitaries,
    invariant_gram,
    sampler_for,
)
from .purity import (
    CollisionResult,
    PauliMap,
    PauliSet,
    complete_pauli_set,
    fixed_purity_state,
    max_collision_probability,
    pauli_from_direction,
    pauli_haar_average,
    purity_from_tr2,
    purity_via_pauli_set,
    tr2_from_purity,
)
from .purity import purity as state_purity
from .randomize import (
    McReport,
    Prediction,
    estimate_expected_local_purity,
    estimate_real_quantum_local_purity,
    predict_general,
    predict_main,
    predict_nonlocaltomo,
    predict_power_law,
    predict_real_quantum,
    qubit_pauli_oracle,
)
from .statespace import (
    SpaceDescriptor,
    build_boxworld_bipartite,
    build_boxworld_local,
    build_classical,
    build_polygon,
    build_quantum,
    build_real_quantum,
    random_mixtures,
    validate_state,
)

__version__ = "0.1.0"
