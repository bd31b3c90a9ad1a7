"""Exact-arithmetic calculus for generalized Ricci solitons on the 3-sphere."""

from .poly import (IntegralValue, JetScalar, NonInvertibleJet, Polynomial,
                   integrate_s3, sphere_moment)
from .frames import (BadIndex, adjoint_matrix, frame_derive, laplacian_scalar,
                     validate_structure)
from .harmonics import CanonicalSpace, canonical_space, harmonic_basis, is_eigenfunction
from .tensors import (BadRank, Geometry, SingularMetric, antisym, is_zero, jet_part,
                      obj_array, sym)
from .variational import (InconsistentSource, SolverError, bianchi_contracted_check,
                          block_eigenvalues, coordinate_tensor, first_variation, lambda_min,
                          operator_A, operator_B, phi_operator, phi_relation_check,
                          second_variation_form, second_variation_matrix, slice_tangent_basis)
from .deformations import (Deformation, NotEigenfunction, PreconditionFailed, canonical_igsd,
                           equivalence_check, igsd_kernel, integrability_report,
                           integral_identities, jet_second_variation_check, obstruction,
                           parallel_from_invariant_forms, round_geometry)
from .flow import FlowBlowup, FlowState, grf_rhs, run_flow, step_rk4

__version__ = "0.1.0"
