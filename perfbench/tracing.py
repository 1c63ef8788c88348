"""Per-layer counts and times, taken from outside the program.

The tracer replaces public functions of the bsdkit modules with wrappers
that count calls and time them.  A function imported by name into another
module is replaced there too, and methods are replaced on their class, so
every call path goes through one wrapper.  ``rings`` is not wrapped: its
arithmetic sits in the Groebner inner loops, where a wrapper would cost more
than the work it measures.

Time is kept three ways:
- ``<layer>.<name>.s``: inclusive wall time of the outermost active call of
  that function (a recursive call is not counted twice);
- ``<layer>.parse.s`` and other groups: the same for a set of functions;
- ``<layer>.self_s``: wall time while the innermost traced call belongs to
  the layer, i.e. the layer's traced time minus traced children of other
  layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# layer -> (module, public names wrapped, "Class.method" for methods)
TARGETS = {
    "cli": ("bsdkit.cli", ["main"]),
    "modelfile": ("bsdkit.modelfile", [
        "load_model", "load_matrix_file", "parse_patches", "parse_fibre",
        "parse_prime_model", "parse_period_matrix", "component_locus"]),
    "groebner": ("bsdkit.groebner", [
        "Ideal.groebner_basis", "Ideal.interreduced", "normal_form",
        "ideal_membership", "ideal_quotient", "ideal_sum_product",
        "ideal_sum", "ideal_contained_in"]),
    "vanishing": ("bsdkit.vanishing", [
        "vanishing_order", "vanishing_order_truncated",
        "multiplicity_of_component", "rational_function_order"]),
    "periods": ("bsdkit.periods", [
        "covolumes", "lattice_generator", "convert_differential",
        "differential_order_on_component", "vanishing_subspace",
        "neron_basis_adjust", "real_period", "period_pipeline"]),
    "intmat": ("bsdkit.intmat", [
        "hermite_normal_form", "kernel_basis", "smith_normal_form",
        "invariant_factors", "inverse_unimodular", "solve_integer"]),
    "compgroup": ("bsdkit.compgroup", [
        "validate_fibre", "component_group", "tamagawa_number",
        "fixed_point_count"]),
    "fieldtower": ("bsdkit.fieldtower", [
        "extend_inert", "FieldTower.node_for", "FieldTower.embed",
        "minimal_polynomial", "subfield_property_check", "is_inert",
        "resultant", "discriminant", "optimise_discriminant"]),
    "poly": ("bsdkit.poly", [
        "parse_polynomial", "exact_divide", "poly_gcd"]),
}

# functions timed together as one span (outermost entry into any of them)
GROUPS = {
    "modelfile.parse": {"parse_patches", "parse_fibre", "parse_prime_model",
                        "parse_period_matrix", "component_locus"},
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.values = defaultdict(list)      # key -> list of observed values
        self._depth = Counter()
        self._start = {}
        self._stack = []
        self._last = 0.0
        self._undo = []
        self._group_of = {}
        for group, names in GROUPS.items():
            layer = group.split(".")[0]
            for name in names:
                self._group_of[f"{layer}.{name}"] = group

    # -- bookkeeping around one call

    def _open(self, key, now):
        if self._depth[key] == 0:
            self._start[key] = now
        self._depth[key] += 1

    def _close(self, key, now):
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.incl[key] += now - self._start.pop(key)

    def enter(self, layer, key):
        now = perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(layer)
        self.calls[key] += 1
        self._open(key, now)
        group = self._group_of.get(key)
        if group:
            self._open(group, now)

    def exit(self, layer, key):
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._last
        self._last = now
        self._close(key, now)
        group = self._group_of.get(key)
        if group:
            self._close(group, now)

    # -- installing the wrappers

    def _wrap(self, fn, layer, key, observe):
        tracer = self
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(layer, key)
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer, result, bound.arguments)
            return result
        return traced

    def install(self):
        """Wrap every target; undone by uninstall()."""
        modules = [importlib.import_module(mod)
                   for mod, _ in TARGETS.values()]
        for layer, (modname, names) in TARGETS.items():
            mod = importlib.import_module(modname)
            for name in names:
                key = f"{layer}.{name.split('.')[-1]}"
                observe = OBSERVERS.get(key)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, layer, key, observe))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(orig, layer, key, observe)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _basis_size(tracer, result, arguments):
    tracer.values["groebner.basis_size"].append(len(result))


def _chain_steps(tracer, result, arguments):
    # quotient tests of one chain: min(order, budget) + 1
    tracer.values["vanishing.chain_steps"].append(
        min(result.order, arguments["budget"]) + 1)


OBSERVERS = {
    "groebner.groebner_basis": _basis_size,
    "vanishing.vanishing_order": _chain_steps,
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, rounds, names):
    """The named per-layer metrics, each per round of the workload.

    ``<key>.calls`` and ``<key>.s`` read the counters of the wrapped
    function (or group) ``<key>``; ``<layer>.self_s`` the layer's self time.
    Maxima and ratios are the same in every round and are not divided.
    """
    c = tracer.calls
    sizes = tracer.values["groebner.basis_size"]
    steps = sum(tracer.values["vanishing.chain_steps"])
    derived = {
        "groebner.basis_size.sum": sum(sizes) / rounds,
        "groebner.basis_size.max": max(sizes, default=0),
        "vanishing.chain_steps": steps / rounds,
        "vanishing.quotients_per_step": _ratio(
            c["groebner.ideal_quotient"], steps),
        "periods.orders_per_adjust": _ratio(
            c["periods.differential_order_on_component"],
            c["periods.neron_basis_adjust"]),
        "intmat.snf_per_group": _ratio(
            c["intmat.smith_normal_form"], c["compgroup.component_group"]),
    }
    out = {}
    for name in names:
        key, kind = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = c[key] / rounds
        elif kind == "s":
            out[name] = tracer.incl[key] / rounds
        elif kind == "self_s":
            out[name] = tracer.self_s[key] / rounds
        else:
            raise ValueError(f"no rule for the per-layer metric {name!r}")
        if key.split(".")[0] not in TARGETS:
            raise ValueError(f"{name!r} names no traced layer")
    return out
