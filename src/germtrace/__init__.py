"""Exact computation with finite-state tree automorphisms and their germs.

The package decides word problems for Mealy-machine automorphisms,
computes exact Bernoulli measures of fixed sets, analyses the groupoid
of germs of cylinder shifts (Hausdorffness, dangerous points, isotropy),
and evaluates convolution-algebra elements, traces and truncated
representation matrices, all in exact rational arithmetic.
"""

from .errors import (CapExceededError, DomainError, ElementParseError,
                     GermTraceError, MachineParseError, ParseError,
                     PatternCapError, PointParseError, SingularSystemError,
                     StateCapError)
from .mealy import (STATE_CAP, Aut, Machine, Word, check_word, compose_labels,
                    distinguishing_depth, format_machine, identity_aut,
                    invert_label, minimize, parse_machine, parse_state_expr,
                    parse_word, restrict_label, state_cap, word_text)
from .points import (BOUNDARY, INTERIOR, MOVED, Point, apply_to_point,
                     fixed_walk, format_point, parse_point)
from .fixedpoints import (DecayCertificate, FixCounts, FreenessReport,
                          boundary_null_certificate, essential_freeness_report,
                          fixed_counts, fixed_counts_csv, hausdorff_witness,
                          interiorizable, is_dangerous, mu_fix_exact)
from .germs import Germ, PartialMap, bisection_product, isotropy_germs_at, unit_germ
from .convalg import (PATTERN_CAP, AlgebraElement, Scalar, as_scalar,
                      format_element, format_scalar, indicator, parse_element,
                      parse_scalar, parse_shift, unit_element)
from .traces import (RepMatrix, F_eval, canonical_trace, isotropy_defect,
                     isotropy_trace, rep_matrix)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
