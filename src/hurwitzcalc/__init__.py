"""Exact symbolic divisor calculus for low-degree branched covers of the
line: bundle invariants, Chow-ring intersection numbers, slope bounds, and
boundary-inequality certification.

Everything computes over exact rationals; there is no floating point
anywhere in the engine.
"""

from .symkernel import Poly, Rational, RationalFunction, ceil_div
from .chow import (ChowClass, ChowPresentation, grr_degree_on_p1xp1,
                   ring_grassmann_bundle_g25, ring_hirzebruch, ring_p1xp1,
                   ring_product_with_p1, ring_proj_bundle_over_p1,
                   ring_proj_space)
from .bundles import (CoverInvariants, SplittingType, balanced_type,
                      divisorial_conditions, ext1_dim, generic_tame,
                      is_balanced, is_tame, maroni_codimension,
                      pushforward_c1_power, rational_and_elliptic_tables,
                      syzygy_rank)
from .family_calc import (ChernData, FamilyInvariants, PencilRecord,
                          basechange_section_bookkeeping, invariants_from_chern,
                          partial_pencil_record, pencil_delta_on_surface,
                          pentagonal_pencil_numbers,
                          c2_omega_tetragonal_surface)
from .divisor_classes import (DivisorClass, bogomolov, ce_class, class_x,
                              maroni_class, slope_bound)
from .directrix import (DirectrixFamily, maroni_intersection_pentagonal,
                        rotating_directrix_class)
from .graphs import (DualGraph, boundary_multiplicity, canonical_label,
                     enumerate_two_vertex, excess, ramification_index,
                     validate)
from .yeff import Certificate, InequalityRule, build_rules, certify, \
    check_closed_form_d4

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
