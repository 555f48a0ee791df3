"""Spans and counts around landaukol's layer boundaries, recorded by wrapping
module attributes from outside the package.

Each wrapped call records a span (name, start, end, parent, operation) in
memory; the spans are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover, and a layer's busy time is
the sum of its self times.
"""
from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute, layer): the boundaries the per-module metrics read.
# A module that is not imported yet is left alone, so tracing never pulls
# scipy into a workload that does not use the oracles.
BOUNDARIES = (
    ("landaukol._roots", "real_roots_exact", "roots.exact"),
    ("landaukol._roots", "real_roots_float", "roots.float"),
    ("landaukol.exactnum", "Poly.__mul__", "exactnum.poly_mul"),
    ("landaukol.peano", "vandermonde_certificate", "peano.certificate"),
    ("landaukol.peano", "_solve_exact", "peano.solve"),
    ("landaukol.peano", "kernel_pieces", "peano.kernel_pieces"),
    ("landaukol.peano", "_kernel_sup", "peano.kernel_sup"),
    ("landaukol.oracle", "minimize", "oracle.minimize"),
    ("landaukol.oracle", "_decode", "oracle.decode"),
    ("landaukol.oracle", "_evaluate_bangbang", "oracle.evaluate"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict = {}
        self.busy: dict = {}
        self.nm_evals = 0
        self.current_op = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, layer: str):
        name_id = len(self.names)
        self.names.append(layer)
        self.calls[layer] = 0
        self.busy[layer] = 0.0
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.current_op)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[idx] = t1
                self.calls[layer] += 1
                self.busy[layer] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if layer == "oracle.minimize":
                self.nm_evals += result.nfev
            return result

        return traced

    def install(self) -> None:
        for module, attr, layer in BOUNDARIES:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            owner = mod
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            traced = self._wrap(fn, layer)
            setattr(owner, name, traced)
            self._undo.append((owner, name, fn))
            if attr == "Poly.__mul__":  # __rmul__ is the same function
                setattr(owner, "__rmul__", traced)
                self._undo.append((owner, "__rmul__", fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "busy": dict(self.busy), "nm_evals": self.nm_evals}

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: id, name, parent id, operation, start and
        end in microseconds from the first span."""
        t_base = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,op,start_us,end_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.parent[i]},{self.op[i]},"
                    f"{(self.start[i] - t_base) * 1e6:.1f},{(self.end[i] - t_base) * 1e6:.1f}\n"
                )

