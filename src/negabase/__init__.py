"""Exact greedy, lazy and Ito-Sadahiro expansions in negative base.

Work happens in the field Q(beta) for an algebraic base beta > 1, so all
digit choices, breakpoint tests and period detections are exact.  The
greedy and lazy expansions in base -beta are read off the greedy and lazy
single-map schemes in base beta^2 over a non-integer pair alphabet, two
digits per pair digit; the package also decides which digit strings are
admissible as such expansions and brute-force-counts representations for
uniqueness experiments.
"""

from .admissibility import (ADMISSIBLE, PREFIX_OK, REJECTED, UNDECIDED,
                            AdmissibilityBound, AdmissibilityReport,
                            AlphabetInfo, Violation,
                            golden_forbidden_factor_check,
                            is_admissible_greedy, is_admissible_lazy,
                            ito_sadahiro_admissible, minimal_alphabet,
                            reference_bounds, restricted_scheme)
from .field import (ContextMismatchError, ExactReal, FieldContext, FieldError,
                    field_from_poly, phi_field, rational_field,
                    tribonacci_field)
from .oracle import (BranchBudgetError, UniqueSample,
                     count_representation_branches, enumerate_prefixes,
                     extremal_prefix, sample_unique_numbers)
from .schemes import (DEFAULT_ORBIT_BUDGET, STATUS_OK,
                      STATUS_PERIOD_NOT_FOUND, DomainError, Expansion,
                      Interval, Scheme, SchemeCell, all_pair_digits,
                      build_beta2_scheme, build_ito_sadahiro_scheme,
                      build_positive_greedy_scheme, digit_subinterval,
                      eval_beta2_pairs, eval_digits, eval_neg_beta,
                      eval_pos_beta, feasible_digits, greedy_breakpoint,
                      greedy_neg_beta, interval_I, lazy_breakpoint,
                      lazy_neg_beta, pair_predecessor, pair_successor,
                      pair_value, run_scheme, step_max_digit, step_min_digit,
                      symmetric_partner)
from .syntax import ParseError, parse_base, parse_element
from .words import (EQ, GT, LT, DigitString, PairDigit, WordFormatError,
                    alt_compare, alt_sort_key, complement_digits,
                    complement_pairs, format_word, lex_compare, pair_sort_key,
                    parse_word, psi_expand, psi_inverse)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
