"""Per-layer tracing from outside the program.

Each public function of a layer is wrapped, and every name bound to the
original anywhere in the hilbfold package (including names imported with
``from ... import``) is rebound to the wrapper.  A wrapper counts calls and
measures self time: its own duration minus the time spent in wrapped
callees.  Wrappers only record while ``active`` is set, so untimed checks
between operations are not traced.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


def _ffield_points(orig, nvars_arg, q_arg):
    sig = inspect.signature(orig)

    def points(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        return bound[q_arg] ** bound[nvars_arg]
    return points


def _entries(args, kwargs, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _text_bytes(args, kwargs, result):
    return len(result.encode())


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []

    def _run(self, key, call):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[key] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def wrap(self, key, fn, counters=()):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            result = self._run(key, lambda: fn(*args, **kwargs))
            for name, measure in counters:
                self.counts[name] += measure(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, key, fn):
        """Time each step of a generator as a call of its own."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not self.active:
                    step = next(gen, _DONE)
                else:
                    step = self._run(key, lambda: next(gen, _DONE))
                if step is _DONE:
                    return
                yield step
        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self):
        """Counters and self times under the metric names of BENCHMARK.json."""
        out = {}
        for key in CALLS:
            out[f"{key}.calls"] = self.calls[key]
        for key in SELF_TIMES:
            out[f"{key}.self_s"] = self.self_s[key]
        out.update({name: self.counts[name] for name in COUNTS})
        out["ffield.walks"] = self.calls["ffield.walk"]
        return out


_DONE = object()

CALLS = ["exact.rref", "exact.minor", "foldring.normalize_punctual",
         "foldring.tangent_dim", "hypercomplex.build_complex",
         "hypercomplex.cells_containing", "moment.moment_global",
         "ffield.vanishing_mask", "cli.main"]
SELF_TIMES = ["exact.rref", "exact.minor", "foldring.normalize_punctual",
              "foldring.tangent_dim", "foldring.is_singular_point",
              "foldring.is_smoothable", "hypercomplex.build_complex",
              "hypercomplex.cells_containing",
              "hypercomplex.is_smoothable_face", "moment.moment_global",
              "moment.locate", "localmodel.build_sing_complex",
              "localmodel.verify", "ffield.walk", "ffield.vanishing_mask",
              "ffield.point_chunks", "export.complex_to_dict",
              "export.complex_to_off", "export.render_svg",
              "export.dict_to_json", "cli.main"]
COUNTS = ["exact.rref.entries", "hypercomplex.build_complex.cells",
          "ffield.points", "export.bytes"]


def rebind(original, replacement):
    """Point every hilbfold module-level name bound to `original` at
    `replacement`, so callers that imported it by name see the wrapper."""
    for name, module in list(sys.modules.items()):
        if name != "hilbfold" and not name.startswith("hilbfold."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    from hilbfold import (cli, exact, export, ffield, foldring, hypercomplex,
                          localmodel, moment)

    def cells(args, kwargs, result):
        return len(result.cells)

    plain = [
        (exact, "rref", "exact.rref", [("exact.rref.entries", _entries)]),
        (exact, "minor", "exact.minor", []),
        (foldring, "normalize_punctual", "foldring.normalize_punctual", []),
        (foldring, "tangent_dim", "foldring.tangent_dim", []),
        (foldring, "is_singular_point", "foldring.is_singular_point", []),
        (foldring, "is_smoothable", "foldring.is_smoothable", []),
        (hypercomplex, "build_complex", "hypercomplex.build_complex",
         [("hypercomplex.build_complex.cells", cells)]),
        (hypercomplex, "is_smoothable_face",
         "hypercomplex.is_smoothable_face", []),
        (moment, "moment_global", "moment.moment_global", []),
        (moment, "locate", "moment.locate", []),
        (localmodel, "build_sing_complex", "localmodel.build_sing_complex",
         []),
        (localmodel, "verify_decomposition_ff", "localmodel.verify", []),
        (localmodel, "verify_reduction", "localmodel.verify", []),
        (localmodel, "verify_sing_complex", "localmodel.verify", []),
        (ffield, "vanishing_mask", "ffield.vanishing_mask", []),
        (export, "complex_to_dict", "export.complex_to_dict", []),
        (export, "complex_to_off", "export.complex_to_off",
         [("export.bytes", _text_bytes)]),
        (export, "render_svg", "export.render_svg",
         [("export.bytes", _text_bytes)]),
        (export, "dict_to_json", "export.dict_to_json",
         [("export.bytes", _text_bytes)]),
        (cli, "main", "cli.main", []),
    ]
    walks = [("union_equals_ideal", "nvars", "q"),
             ("count_vanishing", "nvars", "q"),
             ("projection_into_variety", "big_nvars", "q"),
             ("coordinate_subspace_equals_intersection", "nvars", "q")]
    for attr, nvars_arg, q_arg in walks:
        orig = getattr(ffield, attr)
        plain.append((ffield, attr, "ffield.walk",
                      [("ffield.points",
                        _ffield_points(orig, nvars_arg, q_arg))]))
    for module, attr, key, counters in plain:
        orig = getattr(module, attr)
        rebind(orig, tracer.wrap(key, orig, counters))
    orig = ffield.iter_point_chunks
    rebind(orig, tracer.wrap_generator("ffield.point_chunks", orig))
    method = hypercomplex.ComplexKnm.cells_containing
    hypercomplex.ComplexKnm.cells_containing = tracer.wrap(
        "hypercomplex.cells_containing", method)
