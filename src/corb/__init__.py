"""Coherent randomized benchmarking toolkit.

Builds benchmarkable qudit gate sets, verifies the twirl-annihilation
condition, simulates standard / coherent / interleaved RB over exact
density matrices under configurable noise, and fits the fidelity decay
to recover chi00 and average gate fidelities.
"""

from .linalg import TOL, Tolerances, tensor
from .paulis import (
    PauliLabel,
    character_sum,
    enumerate_paulis,
    pauli_basis,
    pauli_matrix,
    symplectic_product,
)
from .gatesets import (
    ConditionReport,
    GateSet,
    build_clifford_set,
    build_controlled_set,
    build_custom_set,
    build_dressed_set,
    build_ms_dressed_set,
    build_pauli_set,
    build_two_control_set,
    check_condition,
    parse_set_spec,
    sequence_inverse,
)
from .noise import (
    NoiseModel,
    avg_gate_fidelity,
    avg_state_fidelity,
    chi00_of,
    chi_to_kraus,
    composed_chi00,
    control_depolarize,
    dephasing_kraus,
    depolarizing_kraus,
    infidelity_to_dephasing,
    kraus_to_chi,
    parse_channel_spec,
)
from .engine import (
    FidelityRecord,
    RbRunConfig,
    run,
    run_coherent_and_standard,
    run_coherent_full,
    run_coherent_rb,
    run_coherent_with_control_noise,
    run_interleaved_coherent,
    run_standard_rb,
)
from .fitting import (
    DecayFit,
    DeviationScenario,
    DeviationSummary,
    IrbEstimate,
    combined_decay,
    deviation_experiment,
    fit_decay,
    fit_records,
    irb_extract,
    standard_rb_curve,
)

__version__ = "0.1.0"
