"""evslab: a computational laboratory for exponential vector spaces.

Exact rational implementations of the classical ordered-structure
instances (half line, cone and twisted products, dictionary plane,
subspace lattice), exact deciders for absorbing/balanced/bounded/radial
set predicates, the local-base conditions and finest-topology audit
for the neighborhood results, and a seeded falsification harness for
everything that is not exactly decidable.
"""

from ._backend import BACKEND, Rat, rat, rat_parse, rat_str
from .core import (AXIOM_IDS, EvsDescriptor, check_axioms,
                   check_order_morphism, check_primitive_scaling,
                   product_evs)
from .instances import (MORPHISMS, PLANTED_FAULTS, OrderIso, cone_product,
                        dict_plane, half_line, make_instance,
                        subspace_lattice, twisted_product)
from .outcome import (PROVEN, REFUTED, UNFALSIFIED, CheckOutcome, subseed)
from .scalars import (ANY_SCALAR, PYTHAGOREAN_ONLY, Scalar, modulus,
                      modulus_squared, parse_scalar, render_scalar, scalar)
from .setexpr import SetExprError, parse_set_expression
from .sets import (AnchoredBoxUnion, Interval, IntervalUnion, LatticeFamily,
                   ProductSlice, interval_union, is_absorbing, is_balanced, iu)
from .setlaws import (check_absorbing_closure_laws,
                      check_balanced_closure_laws, check_radial,
                      check_radial_product_and_hereditary,
                      check_absorbing_transport, radial_separator,
                      transport_set)
from .topology import (check_bounded_laws, check_local_base_conditions,
                       finest_topology_audit, is_bounded_set, is_usual_open,
                       open_balanced_absorbing_form, usual_base)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
