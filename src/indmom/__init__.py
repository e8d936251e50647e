"""indmom: numerics for indeterminate Hamburger moment problems.

Evaluates the one- and two-variable Nevanlinna functions of an
indeterminate Jacobi matrix, constructs N-extremal measures, tests
membership of vectors in the Jacobi operator domain and in the domains of
its self-adjoint extensions, and realizes the bounded difference-quotient
operator whose range is the operator domain.
"""

__version__ = "0.1.0"

from .coefficients import JacobiCoefficients
from .debranges import (CoeffMatrix, F_eval, G_eval, bound_suite,
                        coeff_matrix, diff_quotient_residual, kernel,
                        resolvent_residual, xi_apply)
from .domains import (MembershipVerdict, Residues, ResolventCombination,
                      extension_generator, membership_DT, membership_DTt,
                      p_vector, pair_coefficient, q_vector, residues,
                      resolvent_combination, s_r_coefficients)
from .evaluation import PolyEval, TruncationPolicy, eval_pq
from .measures import (DiscreteMeasure, ExtensionParam, StieltjesResult,
                       adjacent_zero_sign, build_measure, export_measure_csv,
                       mass_at, mobius, stieltjes, support_function,
                       t_for_point)
from .nevanlinna import (NevQuad, nev, nev_one, nev_partial,
                         partial_quad_arrays, reconstruct_two_var,
                         three_point_residual, tilde_relations_residual)
from .sequences import SeqVector, apply_jacobi, moment
from .zeros import (LineFunction, RootScan, RootScanConfig, count_zeros_rect,
                    nevanlinna_line)

__all__ = [
    "JacobiCoefficients", "TruncationPolicy", "PolyEval", "eval_pq",
    "SeqVector", "apply_jacobi", "moment",
    "NevQuad", "nev", "nev_one", "nev_partial", "partial_quad_arrays",
    "reconstruct_two_var", "three_point_residual", "tilde_relations_residual",
    "RootScan", "RootScanConfig", "LineFunction", "nevanlinna_line",
    "count_zeros_rect",
    "ExtensionParam", "DiscreteMeasure", "StieltjesResult",
    "support_function", "t_for_point", "mass_at",
    "build_measure", "mobius", "stieltjes", "adjacent_zero_sign",
    "export_measure_csv",
    "Residues", "MembershipVerdict", "ResolventCombination",
    "residues", "s_r_coefficients", "membership_DT", "membership_DTt",
    "pair_coefficient", "resolvent_combination", "p_vector", "q_vector",
    "extension_generator",
    "CoeffMatrix", "F_eval", "G_eval", "kernel", "coeff_matrix", "xi_apply",
    "resolvent_residual", "diff_quotient_residual", "bound_suite",
]
