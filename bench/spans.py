"""Spans around the public functions of cube_transport, for the traced run.

Each traced function is replaced, under every name the program looks it up
by (``cube_transport.cli.knothe_map``, ``cube_transport.knothe.monotone_map``,
the ``cli.SUITES`` table, ...), by a wrapper that records one span per call:
name, start, end, and the span that was open when the call began. A
generator gets one span per item drawn. Spans and counters stay in memory
until the run ends; ``Tracer.layer_metrics`` turns them into the per-layer
metrics.

Time metrics are inclusive: the time inside the outermost calls of a name, so
a recursive call is not counted twice. ``knothe.knothe_map_s`` is the one
self time: knothe_map minus its child spans (the 1d fiber maps and the
recursive base maps).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SELF_TIMED = {"knothe.knothe_map"}


def _fibers(tr, args, kwargs, result):
    # 1d fiber maps the triangular construction needs, over all its levels
    grid = args[0].grid
    tr.add("knothe.fibers", sum(grid.cells_per_axis ** k for k in range(grid.dim)))


def _evaluated(tr, args, kwargs, result):
    tr.add("knothe.evaluate_points", len(result))


def _grid_points(tr, args, kwargs, result):
    tr.add("sampler.sample_grid_points", len(result.points))


def _monotone(tr, args, kwargs, result):
    tr.add("transport1d.monotone_map_calls", 1)


def _atoms(tr, args, kwargs, result):
    tr.add("functionals.coupling_atoms", len(result[2]))


def _exact(tr, args, kwargs, result):
    tr.add("functionals.exact_w2_small_calls", 1)
    tr.add("functionals.plan_support", len(result[1].weights))


def _lp(tr, args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    tr.add("functionals.lp_variables", len(c))
    tr.add("functionals.lp_iterations", int(getattr(result, "nit", 0)))


def _equicorrelated(tr, args, kwargs, item):
    block, drawn = item
    n = args[0] if args else kwargs["n"]
    tr.add("sampler.equicorrelated_candidates", drawn)
    tr.add("sampler.equicorrelated_accepted", len(block))
    tr.add("sampler.equicorrelated_normals", drawn * (n + 1))


# (defining module, attribute, span name, counter hook). A hook sees the
# arguments and result of an outermost call, or each item of a generator.
TARGETS = [
    ("cube_transport.cli", "emit_report", "cli.emit_report", None),
    ("cube_transport.svg", "write_profile_svg", "svg.write_profile_svg", None),
    ("cube_transport.density", "build_density", "density.build_density", None),
    ("cube_transport.density", "estimate_axis_convexity_ratio", "density.diagnostics", None),
    ("cube_transport.density", "check_midpoint_log_concavity", "density.diagnostics", None),
    ("cube_transport.density", "estimate_diag_second_derivative_bound",
     "density.diagnostics", None),
    ("cube_transport.transport1d", "monotone_map", "transport1d.monotone_map", _monotone),
    ("cube_transport.knothe", "knothe_map", "knothe.knothe_map", _fibers),
    ("cube_transport.knothe", "KnotheMap.evaluate", "knothe.evaluate", _evaluated),
    ("cube_transport.knothe", "check_facet_preservation",
     "knothe.check_facet_preservation", None),
    ("cube_transport.knothe", "tire_bracket", "knothe.tire_bracket", None),
    ("cube_transport.knothe", "pushforward_error", "knothe.pushforward_error", None),
    ("cube_transport.functionals", "triangular_coupling_cost",
     "functionals.triangular_coupling_cost", None),
    ("cube_transport.functionals", "triangular_coupling",
     "functionals.triangular_coupling", _atoms),
    ("cube_transport.functionals", "exact_w2_small", "functionals.exact_w2_small", _exact),
    ("cube_transport.functionals", "linprog", "functionals.linprog", _lp),
    ("cube_transport.functionals", "legendre_tire_bound",
     "functionals.legendre_tire_bound", None),
    ("cube_transport.functionals", "relative_entropy", "functionals.relative_entropy", None),
    ("cube_transport.sampler", "sample_grid", "sampler.sample_grid", _grid_points),
    ("cube_transport.sampler", "iter_equicorrelated_cube",
     "sampler.iter_equicorrelated_cube", _equicorrelated),
    ("cube_transport.concentration", "counterexample_scaling",
     "concentration.counterexample_scaling", None),
    ("cube_transport.concentration", "halfspace_profile",
     "concentration.halfspace_profile", None),
    ("cube_transport.concentration", "poincare_lsi_check",
     "concentration.poincare_lsi_check", None),
]


class Tracer:
    """Spans as [name, start, end, parent index, outermost] rows, plus counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = []
        self._open_names = {}
        self._restore = []

    def begin(self, name: str) -> int:
        depth = self._open_names.get(name, 0)
        self._open_names[name] = depth + 1
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, depth == 0])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._open_names[self.spans[index][0]] -= 1

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    if hook is not None:
                        hook(tracer, args, kwargs, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None and tracer.spans[index][4]:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, key, original, wrapper, setter) -> None:
        self._restore.append((owner, key, original, setter))
        setter(owner, key, wrapper)

    def install(self) -> list:
        """Wrap every target under each name it is bound to in a
        cube_transport module. Returns the targets that were not found."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cube_transport" or n.startswith("cube_transport."))]
        missing = []
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules.get(module_name)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            if len(parts) > 1:  # a method: patch the class once
                self._patch(owner, parts[-1], original, wrapper, setattr)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper, setattr)
        cli = sys.modules.get("cube_transport.cli")
        suites = getattr(cli, "SUITES", {})
        for suite, fn in list(suites.items()):
            self._patch(suites, suite, fn, self._wrap(fn, f"cli.{suite}", None),
                        dict.__setitem__)
        return missing

    def uninstall(self) -> None:
        for owner, key, original, setter in reversed(self._restore):
            setter(owner, key, original)
        self._restore.clear()

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, _) in enumerate(self.spans)]

    def accounting_error(self, root: int) -> float:
        """|sum of self times of the spans under ``root`` (root included)
        minus the root's duration|; spans under a root are the ones begun
        while it was open."""
        selfs = self.self_times()
        end = root + 1
        while end < len(self.spans) and self.spans[end][1] < self.spans[root][2]:
            end += 1
        duration = self.spans[root][2] - self.spans[root][1]
        return abs(sum(selfs[root:end]) - duration)

    def layer_metrics(self) -> dict:
        """Seconds per span name (inclusive, or self for SELF_TIMED), the
        counters, and the acceptance ratio of the equicorrelated sampler."""
        selfs = self.self_times()
        out = {}
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            key = f"{name}_s"
            if name in SELF_TIMED:
                out[key] = out.get(key, 0.0) + selfs[i]
            elif outermost:
                out[key] = out.get(key, 0.0) + (end - start)
        out.update(self.counters)
        candidates = self.counters.get("sampler.equicorrelated_candidates", 0)
        accepted = self.counters.get("sampler.equicorrelated_accepted", 0)
        out["sampler.equicorrelated_acceptance"] = accepted / candidates if candidates else 0.0
        return out
