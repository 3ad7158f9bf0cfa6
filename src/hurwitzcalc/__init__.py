"""Exact symbolic divisor calculus for low-degree branched covers of the
line: bundle invariants, Chow-ring intersection numbers, slope bounds, and
boundary-inequality certification.

Everything computes over exact rationals; there is no floating point
anywhere in the engine.

The package exports lazily (PEP 562): importing it loads no engine module,
and the first use of an exported name imports the submodule defining it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the names each engine submodule exports at package level
_EXPORTS = {
    "symkernel": ("Poly", "Rational", "RationalFunction", "ceil_div"),
    "chow": ("ChowClass", "ChowPresentation", "grr_degree_on_p1xp1",
             "ring_grassmann_bundle_g25", "ring_hirzebruch", "ring_p1xp1",
             "ring_product_with_p1", "ring_proj_bundle_over_p1",
             "ring_proj_space"),
    "bundles": ("CoverInvariants", "SplittingType", "balanced_type",
                "divisorial_conditions", "ext1_dim", "generic_tame",
                "is_balanced", "is_tame", "maroni_codimension",
                "pushforward_c1_power", "rational_and_elliptic_tables",
                "syzygy_rank"),
    "family_calc": ("PencilRecord", "basechange_section_bookkeeping",
                    "partial_pencil_record", "pencil_delta_on_surface",
                    "pentagonal_pencil_numbers", "c2_omega_tetragonal_surface"),
    "divisor_classes": ("ChernData", "DivisorClass", "FamilyInvariants", "bogomolov",
                        "ce_class", "class_x", "invariants_from_chern", "maroni_class",
                        "slope_bound"),
    "directrix": ("DirectrixFamily", "maroni_intersection_pentagonal",
                  "rotating_directrix_class"),
    "graphs": ("DualGraph", "boundary_multiplicity", "canonical_label",
               "enumerate_two_vertex", "excess", "ramification_index",
               "validate"),
    "yeff": ("Certificate", "InequalityRule", "build_rules", "certify",
             "check_closed_form_d4"),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
