"""Exact symbolic calculus for the intrinsic (Rumin) complex on Carnot groups.

The package builds stratified Lie algebras from exact structure constants,
normal-orders left-invariant differential operators, constructs the
intrinsic complex with its differential and codifferential matrices, the
hypoelliptic Hodge-Laplacian families G, R and A (derived from the orders
of d_c, on every group where d_c is homogeneous in each degree, such as the
five-dimensional step-3 group and the Heisenberg groups), and the
kernel-type/limiting-exponent bookkeeping attached to them.
On a group with rational structure constants the core computes over Q, and
square roots, each keyed by its square-free radicand, appear only in the
printed orthonormal view.  There is no floating point anywhere.
"""

from .scalars import Scalar, TowerInsufficient
from .liealg import (DimensionMismatch, GradingViolation, JacobiViolation,
                     NotStratified, ResourceLimit, StratifiedLieAlgebra,
                     cartan_group, free_nilpotent)
from .env import AlgebraMismatch, EnvElement
from .coords import (CoordinateRealization, NoRealization, Polynomial,
                     cartan_realization, coordinate_apply)
from .exterior import (CovectorMap, DegreeOverflow, Form, OperatorForm,
                       covectors)
from .rumin import (OperatorMatrix, RuminComplex, SpanMismatch,
                    StarAdjointMismatch)
from .laplacians import (FAMILIES, UnsupportedGroup, a_delta,
                         hodge_conjugate, laplacian, order_table,
                         star_duality_sign, verify_self_adjoint)
from .estimates import (DegreeMismatch, ExponentRecord, HorizontalTensor,
                        KernelType, OutOfRange, cartan_pairing,
                        check_row_membership, differentiate_type,
                        folland_map, generalized_divergence,
                        kernel_type_of_inverse, paper_tensor, proof_row,
                        proof_tensor, derived_row, sobolev_dual_exponent,
                        solve_divergence_tensor, sum_space_pairs,
                        tensor_findings, theorem_table)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "Scalar", "TowerInsufficient",
    "StratifiedLieAlgebra", "cartan_group", "free_nilpotent",
    "JacobiViolation", "GradingViolation", "NotStratified",
    "DimensionMismatch", "ResourceLimit",
    "EnvElement", "AlgebraMismatch",
    "Polynomial", "CoordinateRealization", "cartan_realization",
    "coordinate_apply", "NoRealization",
    "Form", "OperatorForm", "CovectorMap", "covectors",
    "DegreeOverflow",
    "RuminComplex", "OperatorMatrix", "SpanMismatch",
    "StarAdjointMismatch",
    "laplacian", "a_delta", "order_table", "hodge_conjugate",
    "verify_self_adjoint", "star_duality_sign",
    "FAMILIES", "UnsupportedGroup",
    "KernelType", "ExponentRecord", "HorizontalTensor", "OutOfRange",
    "DegreeMismatch", "kernel_type_of_inverse", "differentiate_type",
    "folland_map", "sobolev_dual_exponent", "theorem_table",
    "sum_space_pairs", "paper_tensor", "proof_tensor", "proof_row",
    "derived_row", "generalized_divergence", "check_row_membership",
    "cartan_pairing", "solve_divergence_tensor", "tensor_findings",
    "run_verify",
]
