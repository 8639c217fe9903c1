"""Span tracer that wraps operpop functions from outside the package.

A wrapper is installed on the defining module (or class) and on every
other operpop module that holds the same object under some name, so calls
made through ``from .x import f`` are traced too.  Nothing in the package
is edited; ``Tracer.installed()`` restores every original on exit.

Spans live in flat arrays (name, parent, start, end) until the run ends.
Self time (duration minus the time covered by child spans), per-layer busy
time (inclusive time of the outermost calls into the layer) and call
counts are accumulated online as spans close.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("exactalg", "liedata", "critical", "population", "miura", "solutions", "cli")

# Functions traced per layer; "Class.op" names a method, with the dunder
# spelled as in the metric name (Poly.mul is Poly.__mul__ and its aliases).
TRACED = {
    "exactalg": (
        "integrate_shape",
        "poly_ext_gcd",
        "squarefree",
        "Poly.mul",
        "Poly.divmod",
        "poly_gcd",
        "rational_antiderivative",
        "log_derivative",
    ),
    "liedata": ("weyl_length", "degrees_for", "weyl_order", "weyl_elements", "cartan_data"),
    "critical": ("fertility_direction", "is_generic", "wronskian_rhs", "build_T"),
    "population": ("explore", "descend_family", "calibrated_sequence"),
    "miura": ("miura_from_tuple", "TwistedFunc.mul", "TwistedFunc.derivative"),
    "solutions": (
        "rep_standard_sl",
        "rep_standard_sp",
        "exp_generator",
        "TwistedMatrix.matmul",
        "apply_miura",
        "solution_A",
        "solution_BC",
        "solution_general",
    ),
    "cli": ("main", "parse_problem", "_emit"),
}

# Generator functions: each resumption is a span, so iterating the
# generator is timed, not only creating it; calls count creations.
GENERATORS = {"liedata.weyl_elements"}

_DUNDER = {"mul": "__mul__", "divmod": "__divmod__", "matmul": "__matmul__"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.layer_busy = [0.0] * len(LAYERS)
        self._layer_depth = [0] * len(LAYERS)
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]

    # -- spans -----------------------------------------------------------

    def _open(self, fid: int) -> None:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(fid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        self._layer_depth[self.layer_of[fid]] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append([idx, fid, start, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        idx, fid, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[fid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        layer = self.layer_of[fid]
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_busy[layer] += dur

    def _probe(self, args) -> None:
        """Track the largest degree and coefficient bit length seen."""
        poly_t, ratfunc_t = self._poly_types
        for a in args:
            if isinstance(a, poly_t):
                polys = (a,)
            elif isinstance(a, ratfunc_t):
                polys = (a.num, a.den)
            else:
                continue
            for poly in polys:
                cs = poly.coeffs
                if len(cs) - 1 > self.max_degree:
                    self.max_degree = len(cs) - 1
                for c in cs:
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    # -- wrappers --------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fid: int, fn, probe: bool):
        calls = self.calls
        open_, close = self._open, self._close
        probe_ = self._probe

        def traced(*args, **kwargs):
            if probe:
                probe_(args)
            calls[fid] += 1
            open_(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fid: int, fn):
        calls = self.calls
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            calls[fid] += 1
            inner = fn(*args, **kwargs)
            while True:
                open_(fid)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    close()
                yield value

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "operpop" or n.startswith("operpop.")]
        exactalg = sys.modules["operpop.exactalg"]
        self._poly_types = (exactalg.Poly, exactalg.RatFunc)
        undo: list[tuple[object, str, object]] = []
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"operpop.{layer}"]
                for name in names:
                    fid = self._register(layer, name)
                    if "." in name:
                        cls_name, op = name.split(".")
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__[_DUNDER.get(op, op)]
                        targets = [cls]
                    else:
                        orig = getattr(home, name)
                        targets = modules
                    if f"{layer}.{name}" in GENERATORS:
                        wrapper = self._wrap_generator(fid, orig)
                    else:
                        wrapper = self._wrap(fid, orig, probe=layer == "exactalg")
                    for target in targets:
                        for attr, value in list(vars(target).items()):
                            if value is orig:
                                setattr(target, attr, wrapper)
                                undo.append((target, attr, orig))
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                setattr(target, attr, orig)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self_s per function, self_s and busy_s per layer."""
        out: dict[str, float] = {}
        layer_self = [0.0] * len(LAYERS)
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_s"] = self.self_s[fid]
            layer_self[self.layer_of[fid]] += self.self_s[fid]
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = layer_self[k]
            out[f"{layer}.busy_s"] = self.layer_busy[k]
        out["exactalg.max_degree"] = self.max_degree
        out["exactalg.max_coeff_bits"] = self.max_coeff_bits
        return out

    def write_spans(self, path) -> int:
        """Write every span as CSV (gzip): index, parent, root, name, start, end."""
        root = array("i", [0]) * len(self.span_name)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,parent,root,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                parent = self.span_parent[i]
                root[i] = i if parent < 0 else root[parent]
                fh.write(
                    f"{i},{parent},{root[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
        return len(self.span_name)
