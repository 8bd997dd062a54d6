"""Structure-factor entanglement witnesses for N-qubit systems.

Build the detected state families, evaluate the witness W(k) = 1 - Sigma(k)
for arbitrary coefficient choices, derive depolarizing-noise robustness
thresholds, bound Sigma over biseparable states numerically, and simulate
finite-shot measurement of the witness.
"""

from .bisep import (Bipartition, BisepResult, assemble_cut_state, bisep_bound,
                    enumerate_bipartitions, gme_detected, product_bound,
                    seesaw_max)
from .correlators import (SiteLayout, axis_correlations, collective_spin_sq,
                          structure_factor, two_point, verify_collective_identity)
from .errors import InputError, ResourceError, UnsupportedCaseError
from .noise import (NoiseModel, collective_threshold, collective_threshold_exact,
                    individual_threshold, kraus_crosscheck, noisy_sigma)
from .sampling import ShotPlan, convergence_curve, estimate_witness
from .states import (BlochVector, DensityMatrix, StateVector, from_json,
                     make_basis_state, make_dicke, make_dicke_ghz_superposition,
                     make_ghz_superposition, make_phased_dicke,
                     make_product_density, mix_with_white_noise,
                     random_state_vector, to_json)
from .witness import (WitnessSpec, axis_components, detects,
                      dicke_sigma_closed_form, find_detection_boundary,
                      pair_weight_matrix, phased_dicke_sigma_closed_form,
                      scan_k, sigma_operator, sigma_value, witness_value)

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "BisepResult", "BlochVector", "DensityMatrix",
    "InputError", "NoiseModel", "ResourceError", "ShotPlan", "SiteLayout",
    "StateVector", "UnsupportedCaseError", "WitnessSpec",
    "assemble_cut_state", "axis_components", "axis_correlations", "bisep_bound",
    "collective_spin_sq", "collective_threshold", "collective_threshold_exact",
    "convergence_curve", "detects", "dicke_sigma_closed_form",
    "enumerate_bipartitions", "estimate_witness", "find_detection_boundary",
    "from_json", "gme_detected", "individual_threshold", "kraus_crosscheck",
    "make_basis_state", "make_dicke", "make_dicke_ghz_superposition",
    "make_ghz_superposition", "make_phased_dicke", "make_product_density",
    "mix_with_white_noise", "noisy_sigma", "pair_weight_matrix",
    "phased_dicke_sigma_closed_form", "product_bound", "random_state_vector",
    "scan_k", "seesaw_max", "sigma_operator", "sigma_value", "structure_factor",
    "to_json", "two_point", "verify_collective_identity", "witness_value",
]
