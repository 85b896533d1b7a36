"""Norm derivatives and orthogonality in matrix Hilbert C*-modules.

The module of m-by-n complex matrices over the algebra of n-by-n
matrices carries the inner product <x, y> = x* y and the norm
||x|| = ||<x, x>||^(1/2).  This package computes the one-sided norm
derivatives rho_plus / rho_minus as exact spectral quantities (maxima
and minima of Re phi(<x, y>) over the states phi attaining
phi(<x, x>) = ||x||^2), decides six orthogonality and parallelism
relations with explicit state witnesses and signed margins, verifies
the norm identities around x<x, x>, and cross-checks everything against
definition-level brute-force oracles.

All operations are pure functions of immutable values and are safe to
call concurrently.
"""

from .errors import (InvalidScalars, NoConvergence, NonHermitianInput,
                     NotUnitVector, PreconditionFailed, RhoperpError,
                     ShapeMismatch, ZeroElement, ZeroOperator)
from .matcore import (HermitianSpectrum, adjoint, as_complex_matrix,
                      hermitian_spectrum, operator_norm)
from .hmodule import inner_product, module_action, module_norm
from .stateface import (NumRangeCertificate, StateWitness, TopFace,
                        cauchy_schwarz_gap, face_compression,
                        maximally_mixed, state_from_face_vector, state_value,
                        top_face, zero_in_numrange)
from .normderiv import DerivativePair, rho_fd, rho_minus, rho_pair, rho_plus
from .ortho import (DEFAULT_TOL, OrthoReport, Relation, bhatia_semrl_witness,
                    is_bj, is_bj_real, is_bj_strong, is_ip_orthogonal,
                    is_norm_parallel, is_rho_orthogonal, m_lower_bound)
from .daugavet import (CubeIdentityReport, DaugavetReport,
                       OperatorWitnessReport, module_daugavet_check,
                       operator_daugavet_witness, rho_cube_identity)
from .verify import (PropertyResult, SuiteReport, bj_grid_oracle,
                     bj_orthogonal_pair, bj_real_grid_oracle,
                     incomparability_triple, inner_orthogonal_pair,
                     parallel_grid_oracle, property_names, property_suite,
                     random_degenerate_element, random_element, random_state,
                     strong_bj_sample_oracle)

__version__ = "0.1.0"

__all__ = [
    "RhoperpError", "ShapeMismatch", "NonHermitianInput", "ZeroElement",
    "NotUnitVector", "NoConvergence", "PreconditionFailed", "InvalidScalars",
    "ZeroOperator",
    "as_complex_matrix", "adjoint", "operator_norm", "hermitian_spectrum",
    "HermitianSpectrum",
    "inner_product", "module_norm", "module_action",
    "TopFace", "StateWitness", "NumRangeCertificate", "top_face",
    "state_value", "face_compression", "state_from_face_vector",
    "cauchy_schwarz_gap", "maximally_mixed", "zero_in_numrange",
    "DerivativePair", "rho_plus", "rho_minus", "rho_pair", "rho_fd",
    "Relation", "OrthoReport", "DEFAULT_TOL", "is_ip_orthogonal", "is_bj",
    "is_bj_real", "is_bj_strong", "is_rho_orthogonal", "is_norm_parallel",
    "m_lower_bound", "bhatia_semrl_witness",
    "CubeIdentityReport", "DaugavetReport", "OperatorWitnessReport",
    "rho_cube_identity", "module_daugavet_check", "operator_daugavet_witness",
    "random_element", "random_degenerate_element", "random_state",
    "inner_orthogonal_pair", "bj_orthogonal_pair", "incomparability_triple",
    "bj_grid_oracle", "bj_real_grid_oracle", "strong_bj_sample_oracle",
    "parallel_grid_oracle",
    "property_suite", "property_names", "PropertyResult", "SuiteReport",
]
