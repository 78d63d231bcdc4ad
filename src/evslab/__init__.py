"""evslab: a computational laboratory for exponential vector spaces.

Exact rational implementations of the classical ordered-structure
instances (half line, cone and twisted products, dictionary plane,
subspace lattice), exact deciders for absorbing/balanced/bounded/radial
set predicates, the local-base conditions and finest-topology audit
for the neighborhood results, and a seeded falsification harness for
everything that is not exactly decidable.

``import evslab`` chooses the rational backend and loads nothing else:
each name of ``_EXPORTS``, and each submodule, is imported the first
time it is read (PEP 562) and then kept in the package globals.
"""

import importlib

from ._backend import BACKEND, Rat, rat, rat_parse, rat_str

__version__ = "0.1.0"

# the public names of each module, as the README's "Public API" lists them
_EXPORTS = {
    "core": ("AXIOM_IDS", "EvsDescriptor", "check_axioms",
             "check_order_morphism", "check_primitive_scaling",
             "product_evs"),
    "instances": ("MORPHISMS", "PLANTED_FAULTS", "OrderIso", "cone_product",
                  "dict_plane", "half_line", "make_instance",
                  "subspace_lattice", "twisted_product"),
    "outcome": ("PROVEN", "REFUTED", "UNFALSIFIED", "CheckOutcome",
                "subseed"),
    "scalars": ("ANY_SCALAR", "PYTHAGOREAN_ONLY", "Scalar", "modulus",
                "modulus_squared", "parse_scalar", "render_scalar",
                "scalar"),
    "setexpr": ("SetExprError", "parse_set_expression"),
    "sets": ("AnchoredBoxUnion", "Interval", "IntervalUnion",
             "LatticeFamily", "ProductSlice", "interval_union",
             "is_absorbing", "is_balanced", "iu"),
    "setlaws": ("check_absorbing_closure_laws",
                "check_balanced_closure_laws", "check_radial",
                "check_radial_product_and_hereditary",
                "check_absorbing_transport", "radial_separator",
                "transport_set"),
    "topology": ("check_bounded_laws", "check_local_base_conditions",
                 "finest_topology_audit", "is_bounded_set", "is_usual_open",
                 "open_balanced_absorbing_form", "usual_base"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = sorted(["BACKEND", "Rat", "rat", "rat_parse", "rat_str",
                  *_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(
            f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
