"""Span tracer for the public functions of each fraccalderon module.

``Tracer.install`` replaces every traced function wherever it is looked up:
in its defining module and in every loaded ``fraccalderon`` module that
bound it with ``from .x import f`` (methods are replaced on their class).
Spans are kept in memory; ``summary`` turns them into per-function call
counts, self times (span minus the time its direct child spans cover) and
failure counts, plus the redundant-work counters listed in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# layer (module) -> traced public functions; "Class.method" wraps a method
TARGETS = {
    "grid": ["build_grid"],
    "fracop": ["assemble_quadrature", "apply_spectral"],
    "dirichlet": ["assemble_system", "dirichlet_spectrum", "ensure_solvable",
                  "DirichletSystem.lu", "solve_poisson", "solve_source"],
    "dnmap": ["assemble_dn", "dn_pointwise"],
    "runge": ["runge_approximate", "control_to_interior_matrix", "alpha_sweep"],
    "calderon": ["simulate_measurements", "reconstruct_potential"],
    "extension": ["cs_extend", "trace_derivative", "ucp_conditioning"],
    "diffusion": ["evolve", "decay_series", "dn_cost_check", "heat_kernel_free"],
    "cli": ["validate_config", "run"],
}

# counter name -> unit and better direction
COUNTERS = {
    "fracop.matrix_mb": ("MB", "lower"),
    "dirichlet.dirichlet_spectrum.cache_hits": ("count", "higher"),
    "dirichlet.lu.cache_hits": ("count", "higher"),
    "dnmap.assemble_dn.repeats": ("count", "lower"),
    "calderon.iterations": ("count", "lower"),
}


def span_names() -> list:
    """Metric prefix ``<module>.<function>`` of every traced function."""
    return [f"{mod}.{target.split('.')[-1]}" for mod, targets in TARGETS.items()
            for target in targets]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, failed]
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._returned = {}      # name -> {id(system): id(result last returned)}
        self._dn_keys = set()

    def install(self) -> None:
        modules = {m: importlib.import_module(f"fraccalderon.{m}") for m in TARGETS}
        loaded = [m for n, m in sys.modules.items()
                  if n == "fraccalderon" or n.startswith("fraccalderon.")]
        for mod_name, targets in TARGETS.items():
            module = modules[mod_name]
            for target in targets:
                name = f"{mod_name}.{target.split('.')[-1]}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(module, target)
                wrapper = self._wrap(name, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, False]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            return result
        return traced

    def _returned_again(self, name, system, result) -> bool:
        """Did this system return this same object last time?  Only ids are
        kept, so tracing holds no system or result alive; the system's own
        cache keeps its result, and so its id, alive while the entry exists."""
        seen = self._returned.setdefault(name, {})
        key = id(system)
        if key not in seen:
            weakref.finalize(system, seen.pop, key, None)
        again = seen.get(key) == id(result)
        seen[key] = id(result)
        return again

    def _count(self, name, args, result) -> None:
        c = self.counters
        if name == "fracop.assemble_quadrature":
            c["fracop.matrix_mb"] = max(c["fracop.matrix_mb"], result.matrix.nbytes / 2**20)
        elif name in ("dirichlet.dirichlet_spectrum", "dirichlet.lu"):
            if self._returned_again(name, args[0], result):
                c[f"{name}.cache_hits"] += 1
        elif name == "dnmap.assemble_dn":
            key = (result.fingerprint, result.source_nodes.tobytes(),
                   result.observation_nodes.tobytes())
            if key in self._dn_keys:
                c["dnmap.assemble_dn.repeats"] += 1
            self._dn_keys.add(key)
        elif name == "calderon.reconstruct_potential":
            c["calderon.iterations"] += len(result["diagnostics"]["iterations"])

    def summary(self) -> dict:
        """Per-function calls, self_s and failed, plus counters, as one flat dict."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.failed"] = 0
        for k, (name, start, end, _, failed) in enumerate(self.spans):
            if end is None:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[k]
            out[f"{name}.failed"] += int(failed)
        out.update(self.counters)
        return out
