"""Quantum Bayesian retrodiction in quasiprobability representations.

Compute the recovery (quantum Bayes) map of a channel purely from
quasiprobability data -- frame morphisms, structure coefficients and
matrix roots -- cross-checked against the Hilbert-space construction, and
contrast it with naive classical Bayes inversion.
"""

from .errors import QbretError
from .frames import (
    DualFrame,
    Frame,
    StructureCoefficients,
    build_dw_qubit,
    build_dw_qubits,
    build_sic_qubit,
    classical_structure_coeffs,
    load_frame,
    structure_coeffs,
    tensor_frames,
    validate_frame,
)
from .graphs import (
    TransitionGraph,
    emit_dot,
    emit_svg,
    forward_graph,
    retro_graph,
)
from .hilbert import (
    KrausChannel,
    PetzMap,
    builtin_channel,
    builtin_gates,
    channel_from_dilation,
    petz_hilbert,
    qubit_state,
)
from .matcore import hermitian_eig, partial_trace_b
from .qprcore import (
    PetzQprResult,
    adjoint_qpr,
    born,
    channel_from_qpr,
    channel_to_qpr,
    classical_bayes,
    k_matrix,
    m_power_check,
    petz_qpr,
    povm_to_qpr,
    reconstruct_state,
    state_to_qpr,
    uniform_vector,
    x_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "QbretError",
    "Frame", "DualFrame", "StructureCoefficients",
    "build_dw_qubit", "build_dw_qubits", "build_sic_qubit",
    "classical_structure_coeffs", "load_frame", "structure_coeffs",
    "tensor_frames", "validate_frame",
    "TransitionGraph", "emit_dot", "emit_svg",
    "forward_graph", "retro_graph",
    "KrausChannel", "PetzMap", "builtin_channel", "builtin_gates",
    "channel_from_dilation", "petz_hilbert", "qubit_state",
    "hermitian_eig", "partial_trace_b",
    "PetzQprResult", "adjoint_qpr", "born", "channel_from_qpr", "channel_to_qpr",
    "classical_bayes", "k_matrix", "m_power_check", "petz_qpr",
    "povm_to_qpr", "reconstruct_state", "state_to_qpr", "uniform_vector",
    "x_matrix",
]
