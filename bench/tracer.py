"""Spans around the calls into each cartankit layer, recorded from outside.

``Tracer.install()`` replaces each traced function by a wrapper in its
defining module and at every other binding of the same function object
inside the package (``from .x import f`` copies, re-exports in
``cartankit/__init__``), and wraps ``LieAlgebra.__init__`` on the class.
``uninstall()`` puts the originals back, so untraced passes run the
unmodified code.

Each span records name, start, end, parent span and op id; spans stay in
memory and are written out once, by ``write_spans``.  Self time is kept
online: a span's duration minus the time its child spans cover.  Tracer
bookkeeping that can be large (the bit-length scan of ``rref`` outputs) is
charged to the tracer, not to the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute) of every traced function; the module is the layer.
TRACED = [
    ("linalg", "mat_mul"),
    ("linalg", "mat_pow"),
    ("linalg", "rref"),
    ("linalg", "kernel"),
    ("linalg", "solve"),
    ("linalg", "char_poly"),
    ("linalg", "semisimple_part"),
    ("algebra", "killing_form"),
    ("algebra", "normalizer"),
    ("algebra", "centralizer"),
    ("algebra", "bracket_span"),
    ("algebra", "subalgebra_closure"),
    ("radicals", "radical"),
    ("radicals", "nilradical"),
    ("radicals", "enumerate_ideal_candidates"),
    ("radicals", "bruteforce_max_nilpotent_ideal"),
    ("levi", "levi_decomposition"),
    ("levi", "induced_algebra"),
    ("cartan", "regular_element_csa"),
    ("cartan", "composite_csa"),
    ("cartan", "normalizer_chain_csa"),
    ("cartan", "is_cartan_subalgebra"),
    ("quotient", "quotient_algebra"),
    ("quotient", "push_cartan"),
    ("quotient", "lift_cartan"),
    ("powermap", "powers_surjective_bruteforce"),
    ("powermap", "pk_surjective"),
    ("catalog", "load_algebra"),
    ("verify", "verify_fixture"),
    ("verify", "verify_models"),
]
# Spans the benchmark opens itself around a call into a layer.
CLI_MAIN = "cli.main"
CONSTRUCTOR = "algebra.LieAlgebra"
LAYERS = ("linalg", "algebra", "radicals", "levi", "cartan", "quotient", "powermap", "catalog", "verify", "cli")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


# Calls of the first function made while the second is open, counted apart.
NESTED = [
    ("linalg.mat_pow", "cartan.regular_element_csa"),
    ("radicals.bruteforce_max_nilpotent_ideal", "radicals.nilradical"),
]
PACKAGE = "cartankit"


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{m}.{f}" for m, f in TRACED] + [CONSTRUCTOR, CLI_MAIN]
        self._index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.failed = [0] * n
        self.self_s = [0.0] * n
        self.rref_max_bits = 0
        self.tracer_s = 0.0  # bookkeeping time charged to no span
        self._rref = self._index["linalg.rref"]
        self._nested = {(self._index[a], self._index[b]): 0 for a, b in NESTED}
        self._open = [0] * n  # open spans per name
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.recording = True  # off while the benchmark checks an output
        self._stack: list[list] = []  # [span id, name index, child-covered seconds, start]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, idx: int) -> list:
        start = time.perf_counter()
        sid = len(self.span_name)
        frame = [sid, idx, 0.0, start]
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_name.append(idx)
        self._stack.append(frame)
        self._open[idx] += 1
        return frame

    def _exit(self, frame: list, ok: bool, result=None) -> None:
        end = time.perf_counter()
        sid, idx, covered, start = frame
        self._stack.pop()
        self._open[idx] -= 1
        self.span_end[sid] = end
        duration = end - start
        self.self_s[idx] += duration - covered
        self.calls[idx] += 1
        if not ok:
            self.failed[idx] += 1
        for inner, outer in self._nested:
            if inner == idx and self._open[outer]:
                self._nested[(inner, outer)] += 1
        if ok and idx == self._rref:
            self.rref_max_bits = max(self.rref_max_bits, _max_bits(result))
        done = time.perf_counter()
        self.tracer_s += done - end
        if self._stack:
            self._stack[-1][2] += done - start

    def end_op(self) -> None:
        """Close what an op left open, so the next op starts from no open span.

        The cap's alarm can interrupt the tracer's own bookkeeping, between
        a span's entry and its ``finally``; a span cut short that way ends
        here, or is dropped if its entry was cut short.
        """
        now = time.perf_counter()
        arrays = (self.span_parent, self.span_op, self.span_start, self.span_end, self.span_name)
        n = min(map(len, arrays))
        for arr in arrays:
            del arr[n:]
        for frame in self._stack:
            if frame[0] < n:
                self.span_end[frame[0]] = now
        self._stack.clear()
        self._open = [0] * len(self._open)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a call into a layer."""
        frame = self._enter(self._index[name])
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, ok)

    def _wrap(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(idx)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._exit(frame, ok, result)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, attr in TRACED:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            original = getattr(home, attr)
            wrapper = self._wrap(self._index[f"{layer}.{attr}"], original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = sys.modules[f"{PACKAGE}.algebra"].LieAlgebra
        init = cls.__init__
        self._saved.append((cls, "__init__", init))
        cls.__init__ = self._wrap(self._index[CONSTRUCTOR], init)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in zip(self.names, self.self_s):
            out[name.split(".")[0]] += secs
        return out

    def metric(self, name: str) -> float:
        """Totals by name: ``<layer>.<fn>.calls|self_s|failed``."""
        fn, _, kind = name.rpartition(".")
        idx = self._index[fn]
        return {"calls": self.calls, "self_s": self.self_s, "failed": self.failed}[kind][idx]

    def nested_calls(self, inner: str, outer: str) -> int:
        """Calls of ``inner`` made while an ``outer`` span was open."""
        return self._nested[(self._index[inner], self._index[outer])]

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [
                            sid,
                            self.span_name[sid],
                            self.span_parent[sid],
                            self.span_op[sid],
                            round(self.span_start[sid], 9),
                            round(self.span_end[sid], 9),
                        ]
                    )
                    + "\n"
                )
        return len(self.span_name)
