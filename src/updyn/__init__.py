"""Unpredictable-dynamics toolkit.

Constructs bounded recurrent-plus-decaying signals from a chaotic scalar
source, simulates quasilinear delay and discrete systems driven by them,
and verifies the constructive stability and convergence bounds numerically
at desk scale.
"""

from .chaos import (ExponentialFilter, GridFunction, Series, VectorSequence,
                    convolve_exponential, logistic_orbit, logistic_step, quadrature_oracle)
from .constructs import (DecompositionTriple, WitnessReport, affine_transform,
                         build_function_triple, build_sequence_triple,
                         non_unpredictability_witness, shift)
from .delay import (DelaySystemSpec, ProofConstants, StabilityConstants,
                    bounded_solution, constant_history, convergence_check,
                    integrate_mos, picard_apply, proof_constants, stability_constants)
from .detectors import (DecayReport, UnpredictabilityEvidence, collect_evidence, decay_test,
                        evidence_for_function, find_near_returns, find_separations,
                        sensitivity, verify_evidence)
from .discrete import (DiscreteSystemSpec, GronwallEnvelope, bounded_orbit,
                       convergence_check_discrete, gronwall_envelope, iterate,
                       orbit_sum_residual, spectral_norm)
from .nonlinearity import AssumptionReport, Nonlinearity, check_assumptions, spot_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
