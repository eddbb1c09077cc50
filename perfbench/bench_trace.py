"""Layer spans from wrappers around the library's public calls, and kernel
counts from ``cProfile``.

Nothing here runs in a timed run.  ``Tracer.patched`` swaps each public
function or method listed in ``SPANS`` for a wrapper in every loaded
``dorroh`` module that holds it, so calls made inside the library (split
verifying its isomorphism, the CLI loading a document) are spans too; it
restores the originals on exit.  Spans live in memory until ``dump``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _pair_box(counters, args, result):
    pair = args[0]
    na, ni = pair.A.dim, pair.I.dim
    counters["algebra.validate.calls"] += 1
    # bimodule axioms scan na*na*ni three times, the compatibilities na*ni*ni three times
    counters["algebra.validate.box"] += 3 * na * na * ni + 3 * na * ni * ni
    counters["algebra.validate.nnz"] += sum(
        len(t.entries) for t in (pair.A.mul, pair.I.mul, pair.action.left, pair.action.right)
    )


def _assoc_box(counters, args, result):
    a = args[0]
    counters["algebra.validate.calls"] += 1
    counters["algebra.validate.box"] += a.dim**3
    counters["algebra.validate.nnz"] += len(a.mul.entries)


def _parsed_bytes(counters, args, result):
    counters["exchange.bytes"] += len(args[0].encode())


def _emitted_bytes(counters, args, result):
    counters["exchange.bytes"] += len(result.encode())


# (module, attribute, span name, counter hook).  The span name is the layer
# metric name without its unit suffix.
SPANS = (
    ("exchange", "parse", "exchange.parse", _parsed_bytes),
    ("exchange", "emit", "exchange.emit", _emitted_bytes),
    ("cli", "main", "cli.main", None),
    ("algebra", "check_associativity", "algebra.validate", _assoc_box),
    ("algebra", "check_dorroh_pair_algebra", "algebra.validate", _pair_box),
    ("algebra", "BimoduleAction.validate", "algebra.validate", None),
    ("algebra", "Algebra.find_identity", "algebra.find_identity", None),
    ("algebra", "build_dorroh_algebra", "algebra.build", None),
    ("algebra", "split_algebra_extension", "algebra.split", None),
    ("algebra", "unital_ideal_iso", "algebra.iso", None),
    ("algebra", "verify_algebra_morphism", "algebra.verify_morphism", None),
    ("algebra", "check_iterated_algebra_triple", "algebra.associator", None),
    ("coalgebra", "check_coassociativity", "coalgebra.validate", None),
    ("coalgebra", "check_dorroh_pair_coalgebra", "coalgebra.validate", None),
    ("coalgebra", "BicomoduleCoaction.validate", "coalgebra.validate", None),
    ("coalgebra", "Coalgebra.find_counit", "coalgebra.find_counit", None),
    ("coalgebra", "build_dorroh_coalgebra", "coalgebra.build", None),
    ("coalgebra", "split_coalgebra_extension", "coalgebra.split", None),
    ("coalgebra", "counital_split_iso", "coalgebra.iso", None),
    ("coalgebra", "verify_coalgebra_morphism", "coalgebra.verify_morphism", None),
    ("coalgebra", "check_iterated_coalgebra_triple", "coalgebra.associator", None),
    ("duality", "dualize_algebra_pair", "duality.dualize", None),
    ("duality", "dualize_coalgebra_pair", "duality.dualize", None),
    ("findual", "minimal_recurrence", "findual.minrec", None),
    ("findual", "coproduct_decompose", "findual.coproduct", None),
    ("findual", "dorroh_decompose", "findual.dorroh", None),
    ("findual", "vanishing_check", "findual.vanish", None),
)

SPAN_NAMES = sorted({name for _, _, name, _ in SPANS})

# (directory, file, function) as cProfile names them -> metric prefix
KERNELS = {
    ("dorroh", "algebra.py", "product"): "algebra.product",
    ("dorroh", "linalg.py", "apply"): "linalg.matrix_apply",
    ("dorroh", "linalg.py", "_rref"): "linalg.rref",
    ("dorroh", "fields.py", "canon"): "fields.canon",
    ("dorroh", "tensors.py", "__init__"): "tensors.init",
    (None, "fractions.py", "__new__"): "fields.fraction_new",
}


class Tracer:
    """Records spans as [name, start, end, parent index, task id]."""

    ROOT = "task"

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self.task_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def task(self, task_id):
        self.task_id = task_id
        self._open(self.ROOT)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            if not self._stack:  # outside a task: the benchmark's own checks
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install span wrappers across the loaded dorroh modules."""
        modules = [m for n, m in sys.modules.items() if n == "dorroh" or n.startswith("dorroh.")]
        undo = []
        try:
            for module_name, attr, name, hook in SPANS:
                owner = sys.modules[f"dorroh.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, orig, hook))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr)
                traced = self.wrap(name, orig, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, traced)
                            undo.append((module, key, orig))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def self_times(self):
        """name -> total self time in seconds (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def root_time(self):
        return sum(end - start for name, start, end, _, _ in self.spans if name == self.ROOT)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "task": task_id}) + "\n")


@contextmanager
def profiled(out):
    """Fill ``out`` with kernel call counts and self times while active."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
        for (path, _, func), (_, calls, tottime, _, _) in pstats.Stats(prof).stats.items():
            directory = os.path.basename(os.path.dirname(path))
            prefix = KERNELS.get((directory, os.path.basename(path), func)) or KERNELS.get(
                (None, os.path.basename(path), func)
            )
            if prefix is not None:
                out[prefix + ".calls"] += calls
                out[prefix + ".self_s"] += tottime
