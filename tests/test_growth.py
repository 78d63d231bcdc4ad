"""Linear-growth gate for the law drivers.

Each driver runs at a budget B and at 4B while every call into the
interval kernel, the set deciders and the instance descriptor is
counted.  A driver linear in its budget makes about 4x as many calls at
4B, a quadratic one about 16x; the gate fails above 4.5x.  The
separation drivers have their own gate in ``test_setlaws.py``.
"""

import pytest

from evslab import core, setlaws, topology
from evslab import sets as st
from evslab.instances import MORPHISMS, half_line, make_instance
from evslab.outcome import check_law

GROWTH_BOUND = 4.5
KERNEL = ("interval_union", "iu_intersect", "iu_union", "iu_subset",
          "iu_scale", "iu_translate", "iu_minkowski", "iu_up", "iu_down",
          "scale_set", "random_interval_union", "set_member",
          "is_balanced", "is_absorbing")
DESCRIPTOR = ("add", "scale", "leq", "eq", "sample", "is_primitive",
              "primitive_set", "upward")
SPECS = ("halfline", "cone:2", "twisted:2", "dict2", "lattice2",
         "product:(halfline,dict2)")


class _Counter:
    """Counts every call into the kernel and deciders of ``sets`` and
    into the descriptors handed to ``descriptor``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in KERNEL:
            monkeypatch.setattr(st, name, self.wrap(getattr(st, name)))

    def wrap(self, real):
        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)
        return counted

    def descriptor(self, E):
        for name in DESCRIPTOR:
            setattr(E, name, self.wrap(getattr(E, name)))
        return E

    def growth(self, run, budget: int) -> list:
        """The call counts of ``run(self, B)`` at B = budget and 4*budget."""
        counts = []
        for b in (budget, 4 * budget):
            self.calls = 0
            run(self, b)
            counts.append(self.calls)
        return counts


def _assert_linear(counts):
    assert 0 < counts[1] <= GROWTH_BOUND * counts[0], counts


def _corpus(driver):
    def run(count, budget):
        driver(count.descriptor(half_line()), budget, 7)
    return run


def _axioms(spec):
    def run(count, budget):
        E = count.descriptor(make_instance(spec))
        core.check_axioms(E, budget, 7)
        core.check_primitive_scaling(E, budget, 7)
    return run


def _morphism(name):
    def run(count, budget):
        phi = MORPHISMS[name]()
        core.check_order_morphism(
            count.wrap(phi.forward), count.descriptor(phi.domain),
            count.descriptor(phi.codomain), budget, 7)
    return run


def _local_base(count, budget):
    topology.check_local_base_conditions(topology.usual_base(8), budget, 7)


# driver -> (run, smaller budget).  The corpus drivers start at 800:
# below budget 400 their partner list is the whole corpus, not PAIR_CAP
# sets, so they grow quadratically there by design.
_DRIVERS = {
    "closure.absorbing": (_corpus(setlaws.check_absorbing_closure_laws),
                          800),
    "closure.balanced": (_corpus(setlaws.check_balanced_closure_laws), 800),
    "bounded": (_corpus(topology.check_bounded_laws), 800),
    **{f"axioms.{spec}": (_axioms(spec), 200) for spec in SPECS},
    **{f"morphism.{name}": (_morphism(name), 200)
       for name in ("doubling", "embed")},
    "localbase.usual_base": (_local_base, 200),
}


@pytest.mark.parametrize("driver", _DRIVERS)
def test_law_drivers_grow_linearly(monkeypatch, driver):
    run, budget = _DRIVERS[driver]
    _assert_linear(_Counter(monkeypatch).growth(run, budget))


def test_gate_fails_a_planted_quadratic_driver(monkeypatch):
    def quadratic(count, budget):
        # every pair of a corpus that grows with the budget
        E = count.descriptor(half_line())
        xs = E.sample(7, budget // 10)
        check_law(((x, y) for x in xs for y in xs),
                  lambda x, y: E.leq(x, y) or E.leq(y, x),
                  lambda x, y: {}, "incomparable pair", 7)

    counts = _Counter(monkeypatch).growth(quadratic, 200)
    with pytest.raises(AssertionError):
        _assert_linear(counts)
