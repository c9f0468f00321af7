"""Isometry conditions for finite quantum symmetries of metric spaces.

Exact optimal transport with duality certificates, coupling feasibility
(the marriage theorem at measure level), magic-unitary coactions of finite
quantum groups, decision procedures for the diagonal and Wasserstein
isometry conditions, and the largest isometrically-acting quotient.
"""

from .metric import (FiniteMetricSpace, PairSet, random_metric_space,
                     validate_metric)
from .transport import (Coupling, DualPotentials, ProbVector, TransportResult,
                        enumerate_dual_vertices, feasible_coupling_on,
                        kantorovich_w1, prob_vector, solve_transport,
                        wasserstein_inf, wasserstein_p)
from .algebra import (AlgElement, FinDimCStarAlgebra, StateFunctional,
                      extreme_state, random_state)
from .quantum_group import (QuantumGroup, haar_state, verify_quantum_group)
from .coaction import CoAction, act_on_point, orbits, verify_coaction
from .isometry import (IsometryVerdict, check_D, check_injectivity,
                       check_lip1_universal, check_lip_p_state,
                       check_lip_p_universal, check_support_universal,
                       check_theorem_main, check_winf_universal)
from .envelope import BlockIdeal, EnvelopeResult

__version__ = "0.1.0"
