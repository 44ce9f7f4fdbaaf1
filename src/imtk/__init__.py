"""imtk: exact computation with intersection matrices of subsets.

Builders for the inclusion/exclusion/intersection matrix families, a
registry of their algebraic identities as executable checks, closed-form
spectra and ranks with mod-p verification, and the Johnson scheme's
Bose-Mesner bases.
"""

from .build import (A, F, MatrixKind, N, U, Uge, Utl, W, Wbar, X, Y,
                    block_decompose, build, row_support_formula)
from .combinat import (SubsetFamily, binomial, falling_factorial, psi,
                       stirling1, stirling2, xi)
from .exactalg import (ExactMatrix, ModMatrix, Poly, equiv_check, mat_mul,
                       random_prime, rank_modp)
from .opcalc import (L, OperatorExpr, identity_op, op_apply, op_compose, zD,
                     zD_falling, zD_power, zD_shifted_falling)
from .scheme import (SchemeBasis, basis_convert, conversion_matrix,
                     intersection_p, intersection_r, scheme_basis,
                     verify_scheme_axioms)
from .spectra import (SpectrumSpec, alpha, eberlein, float_crosscheck,
                      lambda_uge, lambda_utl, mu, rank_formula, spectrum_of,
                      tau, verify_spectrum, wf_spectrum, wu_spectrum)
from .verify import REGISTRY, run_identity, run_suite

__version__ = "0.1.0"

__all__ = [
    "A", "F", "MatrixKind", "N", "U", "Uge", "Utl", "W", "Wbar", "X", "Y",
    "block_decompose", "build", "row_support_formula",
    "SubsetFamily", "binomial", "falling_factorial", "psi",
    "stirling1", "stirling2", "xi",
    "ExactMatrix", "ModMatrix", "Poly", "equiv_check", "mat_mul",
    "random_prime", "rank_modp",
    "L", "OperatorExpr", "identity_op", "op_apply", "op_compose", "zD",
    "zD_falling", "zD_power", "zD_shifted_falling",
    "SchemeBasis", "basis_convert", "conversion_matrix", "intersection_p",
    "intersection_r", "scheme_basis", "verify_scheme_axioms",
    "SpectrumSpec", "alpha", "eberlein", "float_crosscheck", "lambda_uge",
    "lambda_utl", "mu", "rank_formula", "spectrum_of", "tau",
    "verify_spectrum", "wf_spectrum", "wu_spectrum",
    "REGISTRY", "run_identity", "run_suite",
]
