"""Span tracing of eqlab from outside the package.

`Tracer.install()` replaces every public function of the eqlab modules,
in every eqlab module that binds it, with a wrapper that records one
span: the function's layer-qualified name, its start and end
(`time.perf_counter`), and the span that was open when it started.  A
few class boundaries are wrapped the same way: MoebiusTransform
construction, `@` and `inverse`, lamination builds, developer
placements, crossing factors and verifier samples.  `uninstall()` puts
the original objects back.

Spans are kept in memory in flat arrays while tracing is active and are
only turned into per-layer figures (`Tracer.summary`) after the timed
work.  A layer's self time is the duration of its spans minus the part
of each span that its child spans cover; its total time counts only the
spans with no ancestor in the same layer, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from array import array
from time import perf_counter

LAYERS = ("hyp", "triangle", "transport", "lamination", "surface",
          "conjugacy", "schemas", "render", "cli")

# the known failures, by the layer that raises them: each gets its own
# per-layer count, and any other exception type is counted as "other"
KNOWN_ERRORS = ("transport:DivergentBudgetError", "conjugacy:TimeRangeError",
                "surface:InvalidGluingError", "lamination:ValueError",
                "lamination:EndpointOnLeafError", "hyp:ValueError", "triangle:ValueError")
ERROR_TYPES = frozenset(key.split(":")[1] for key in KNOWN_ERRORS)

# eqlab.schemas functions that turn results into text (schemas.emit_ms; the
# ones eqlab.cli binds, with its _write_output, make the CLI's emit stage)
EMIT_FUNCTIONS = ("canonical_json", "report_to_json", "report_to_csv", "surface_to_json",
                  "lamination_to_json", "triangulation_to_json")

# (class, method) boundaries traced besides the module functions
_CLASS_HOOKS = (
    ("hyp", "MoebiusTransform", "__init__", "moebius_new"),
    ("hyp", "MoebiusTransform", "__matmul__", "moebius_matmul"),
    ("hyp", "MoebiusTransform", "inverse", "moebius_inverse"),
    ("lamination", "DiscreteLamination", "__init__", "build"),
    ("triangle", "Developer", "place", "place"),
    ("transport", "CrossingFactor", "__init__", "crossing_factor_new"),
    ("conjugacy", "Sample", "__init__", "sample_new"),
)

_PRODUCT = "transport.ordered_product"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.active = False
        self.errors: dict[tuple[str, str], int] = {}
        self._last_error = None
        self.factors_supplied = 0
        self.factors_retained = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        span = self._id(name)
        layer = name.split(".", 1)[0]
        tracer = self
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(start)
            names.append(span)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(layer, exc)
                raise
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def _note_error(self, layer: str, exc: BaseException) -> None:
        # an exception is charged to the innermost span it leaves
        if exc is self._last_error:
            return
        self._last_error = exc
        kind = type(exc).__name__
        kind = kind if kind in ERROR_TYPES else "other"
        self.errors[(layer, kind)] = self.errors.get((layer, kind), 0) + 1

    def _wrap_product(self, fn):
        traced = self.wrap(fn, _PRODUCT)
        tracer = self

        @functools.wraps(fn)
        def product(factors, *args, **kwargs):
            factors = tuple(factors)
            result = traced(factors, *args, **kwargs)
            if tracer.active:
                tracer.factors_supplied += len(factors)
                tracer.factors_retained += len(result.factors)
            return result

        return product

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module("eqlab")] + [
            importlib.import_module(f"eqlab.{layer}") for layer in LAYERS
        ]
        wrapped = {}
        for module in modules[1:]:
            layer = module.__name__.split(".")[-1]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (self._wrap_product(obj) if name == _PRODUCT
                                        else self.wrap(obj, name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        for layer, cls_name, method, label in _CLASS_HOOKS:
            cls = getattr(importlib.import_module(f"eqlab.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(original, f"{layer}.{label}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------
    def summary(self) -> dict:
        """Calls, total and self seconds per span name and per layer, plus error
        counts and factor counts; plain JSON data, so child processes can send it."""
        start, end, names, parent = self.start, self.end, self.name, self.parent
        n = len(start)
        layer = [name.split(".", 1)[0] for name in self.names]
        bit = [1 << LAYERS.index(name) for name in layer]
        # forward pass (parents come before their children): a span is the
        # outermost of its layer when no ancestor belongs to the same layer
        mask = array("i", bytes(4 * n))
        outermost = bytearray(n)
        for i in range(n):
            p = parent[i]
            above = mask[p] if p >= 0 else 0
            k = bit[names[i]]
            mask[i] = above | k
            outermost[i] = not above & k
        del mask
        spans = {name: [0, 0.0, 0.0] for name in self.names}
        layers = {name: [0, 0.0, 0.0] for name in LAYERS}
        span_acc = [spans[name] for name in self.names]
        layer_acc = [layers[name] for name in layer]
        # backward pass: every child is folded into `covered` before its parent
        covered = array("d", bytes(8 * n))
        for i in range(n - 1, -1, -1):
            duration = end[i] - start[i]
            own = duration - covered[i]
            p = parent[i]
            if p >= 0:
                covered[p] += duration
            k = names[i]
            acc = span_acc[k]
            acc[0] += 1
            acc[1] += duration
            acc[2] += own
            acc = layer_acc[k]
            acc[0] += 1
            acc[2] += own
            if outermost[i]:  # union of the layer's spans: nested ones not twice
                acc[1] += duration
        return {
            "spans": spans,
            "layers": layers,
            "errors": {f"{k[0]}:{k[1]}": v for k, v in self.errors.items()},
            "factors": [self.factors_supplied, self.factors_retained],
        }

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["start:d", "end:d", "name:i", "parent:i"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)
