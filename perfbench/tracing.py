"""Call tracing for the per-layer metrics.

The tracer wraps public functions of evslab from outside: every module
global, class attribute or descriptor field that holds a traced function
is replaced by a wrapper, so calls through ``from .sets import ...``
references are seen as well.  Each wrapper keeps exact per-name counters:
calls, and self seconds (duration minus the time of wrapped children).
Coarse public calls (checkers, law drivers, CLI suite runners) are also
kept as spans (name, start, end, parent) in memory and written out when
the run ends; hot leaf calls only update counters, which keeps a traced
run's memory flat.

Descriptor fields count only outermost calls: a field called while
another descriptor field is running (the parts of a product instance, or
an instance's ``leq`` calling its own ``add``) runs unwrapped, and its time
is self time of the outer field.  Callbacks registered in ``hooks`` see
the arguments and result of every call of a traced name.
"""

import sys
from time import perf_counter

from evslab import (cli, core, instances, scalars, setexpr, setlaws, sets,
                    topology)

# (module or class, attribute, traced name, keep spans)
TRACED = (
    (scalars.Scalar, "__mul__", "scalars.mul", False),
    (scalars, "modulus", "scalars.modulus", False),
    (core, "check_axioms", "core.check_axioms", True),
    (core, "check_primitive_scaling", "core.check_primitive_scaling", True),
    (core, "check_order_morphism", "core.check_order_morphism", True),
    (sets, "interval_union", "sets.interval_union", False),
    (sets, "iu_intersect", "sets.iu_intersect", False),
    (sets, "iu_union", "sets.iu_union", False),
    (sets, "iu_minkowski", "sets.iu_minkowski", False),
    (sets, "iu_subset", "sets.iu_subset", False),
    (sets, "is_balanced", "sets.is_balanced", False),
    (sets, "is_absorbing", "sets.is_absorbing", False),
    (sets, "random_interval_union", "sets.random_interval_union", False),
    (setlaws, "check_absorbing_closure_laws",
     "setlaws.check_absorbing_closure_laws", True),
    (setlaws, "check_balanced_closure_laws",
     "setlaws.check_balanced_closure_laws", True),
    (setlaws, "check_radial", "setlaws.check_radial", True),
    (setlaws, "check_absorbing_transport",
     "setlaws.check_absorbing_transport", True),
    (setlaws, "check_radial_transport", "setlaws.check_radial_transport",
     True),
    (topology, "check_bounded_laws", "topology.check_bounded_laws", True),
    (topology, "check_local_base_conditions",
     "topology.check_local_base_conditions", True),
    (topology, "is_bounded_set", "topology.is_bounded_set", False),
    (setexpr, "parse_set_expression", "setexpr.parse_set_expression", False),
    (cli, "run_all", "cli.run_all", True),
    (cli, "run_sets", "cli.run_sets", True),
    (cli, "run_bounded", "cli.run_bounded", True),
    (cli, "run_audit", "cli.run_audit", True),
    (cli.ReportRecord, "to_json", "cli.ReportRecord.to_json", False),
)

# descriptor fields wrapped on every instance built while tracing
DESCRIPTOR_FIELDS = ("add", "scale", "leq", "eq", "sample")
DESCRIPTOR_FACTORIES = (
    (instances, "half_line"),
    (instances, "cone_product"),
    (instances, "twisted_product"),
    (instances, "dict_plane"),
    (instances, "subspace_lattice"),
    (core, "product_evs"),
)

NAMES = tuple(name for _, _, name, _ in TRACED) + tuple(
    f"instances.{f}" for f in DESCRIPTOR_FIELDS)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name in NAMES}  # calls, self s
        self.hooks = {name: [] for name in NAMES}  # f(args, result)
        self._descriptor_depth = [0]
        self.spans = []
        self._frames = []  # [child seconds] per active wrapped call
        self._open_spans = []
        self._undo = []

    def wrap(self, name, fn, keep_span=False, descriptor=False):
        stats = self.stats[name]
        hooks = self.hooks[name]
        frames = self._frames
        spans = self.spans
        open_spans = self._open_spans
        depth = self._descriptor_depth

        def traced(*args, **kwargs):
            if descriptor:
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                for hook in hooks:
                    hook(args, result)
                return result
            finally:
                end = perf_counter()
                if descriptor:
                    depth[0] -= 1
                frames.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if keep_span:
                    open_spans.pop()
                    spans[span_id] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, orig, replacement):
        """Replace ``orig`` wherever an evslab module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "evslab"
                                   or mod_name.startswith("evslab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def wrap_descriptor(self, E):
        for field in DESCRIPTOR_FIELDS:
            orig = getattr(E, field)
            setattr(E, field, self.wrap(f"instances.{field}", orig,
                                        descriptor=True))
            self._undo.append((E, field, orig))
        return E

    def install(self):
        for owner, attr, name, keep_span in TRACED:
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self.wrap(name, orig, keep_span)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, orig))
            else:
                self._rebind(orig, wrapped)
        for module, attr in DESCRIPTOR_FACTORIES:
            orig = getattr(module, attr)

            def factory(*args, _orig=orig, **kwargs):
                return self.wrap_descriptor(_orig(*args, **kwargs))

            self._rebind(orig, factory)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in filter(None, self.spans)]
