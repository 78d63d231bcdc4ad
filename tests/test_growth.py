"""Linear-growth gate for the law drivers and the --input commands.

Each driver runs at a budget B and at 4B while every call into the
interval kernel, the set deciders and the instance descriptor is
counted.  A driver linear in its budget makes about 4x as many calls at
4B, a quadratic one about 16x; the gate fails above 4.5x.  The
separation drivers have their own gate in ``test_setlaws.py``.  The
commands that read an --input file run on N and on 4N input sets, at
budget 1, with the parser and the per-set deciders counted as well.
"""

import random
import sys

import pytest

from evslab import cli, core, setexpr, setlaws, topology
from evslab import sets as st
from evslab.instances import MORPHISMS, half_line, make_instance
from evslab.outcome import check_law

GROWTH_BOUND = 4.5
INPUT_SETS = 50
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
    into the descriptors handed to ``descriptor``.  A kernel function is
    rebound wherever a loaded evslab module holds it, so a call made
    through a from-import (``topology.interval_union``) counts too."""

    def __init__(self, monkeypatch):
        self.calls = 0
        modules = [mod for name, mod in list(sys.modules.items())
                   if name.split(".")[0] == "evslab" and mod is not None]
        for name in KERNEL:
            real = getattr(st, name)
            counted = self.wrap(real)
            for mod in modules:
                if vars(mod).get(name) is real:
                    monkeypatch.setattr(mod, name, counted)

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


def test_the_counter_sees_calls_through_a_from_import(monkeypatch):
    # topology binds interval_union with ``from .sets import``
    A = st.iu((0, 1), (2, 3, False, False))
    count = _Counter(monkeypatch)
    topology._make_compact(A)
    assert count.calls == 1


def _random_sets(count):
    rng = random.Random(7)
    return [st.random_interval_union(rng) for _ in range(count)]


# command -> (run on an --input path, the sets written to it): random
# interval unions, and for localbase a nested candidate base
_INPUT_COMMANDS = {
    "sets": (lambda path: cli.run_sets("halfline", 1, 7, path),
             _random_sets),
    "bounded": (lambda path: cli.run_bounded("halfline", 1, 7, path),
                _random_sets),
    "localbase": (lambda path: cli.run_suite("localbase", "halfline", 1, 7,
                                             path), topology.usual_base),
    "audit": (cli.run_audit, _random_sets),
}


@pytest.mark.parametrize("command", _INPUT_COMMANDS)
def test_input_commands_grow_linearly(monkeypatch, tmp_path, command):
    run_command, make_sets = _INPUT_COMMANDS[command]
    paths = {}
    for n in (INPUT_SETS, 4 * INPUT_SETS):
        paths[n] = tmp_path / f"{n}.txt"
        paths[n].write_text("".join(A.render() + "\n"
                                    for A in make_sets(n)), encoding="utf-8")
    count = _Counter(monkeypatch)
    for module, name in ((topology, "is_bounded_set"),
                         (topology, "audit_generator"),
                         (setexpr, "parse_set_expression")):
        monkeypatch.setattr(module, name, count.wrap(getattr(module, name)))
    counts = count.growth(lambda _, n: run_command(str(paths[n])),
                          INPUT_SETS)
    _assert_linear(counts)
    # every set was parsed, so the counters saw the whole file
    assert counts[1] >= 4 * INPUT_SETS
