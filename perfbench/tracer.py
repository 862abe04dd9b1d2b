"""Layer spans and exact FFT counts for rlab, installed from outside the package.

The tracer wraps the module-level functions of every rlab layer in every
module namespace that bound them (``from .norms import x_norm`` makes a second
binding in ``cli``, ``flows`` and ``duhamel``), a few listed methods, the
module bodies while rlab is imported, and the FFT entry points of numpy and
scipy.  Each call becomes a span; the FFT counts are attributed to the
innermost open layer span.  Nothing under ``src/`` is changed.

A span's self time is its duration minus the part of that interval its child
spans cover.  Children may run on pool threads: a task submitted to a
``ThreadPoolExecutor`` while tracing inherits the submitting span as parent,
and overlapping children are counted once (their intervals are merged).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("spectral", "bands", "norms", "potentials", "flows", "duhamel",
          "estimates", "sampling", "cli")
FFT_FUNCTIONS = ("fftn", "ifftn")
FFT_MODULES = ("numpy.fft", "scipy.fft")
# Methods wrapped besides module functions: (layer, class, attribute).
METHODS = (("flows", "_PotentialOperator", "__init__"),
           ("cli", "RunManifest", "add_artifact"),
           ("cli", "RunManifest", "write"))
# Time steps taken per call, from the bound call arguments.
STEPS = {
    "duhamel._born_ladder": lambda a: int(round((a["t_end"] - 1.0) / a["dt"])),
    "flows._strang_loop": lambda a: int(a["n_steps"]),
}


class _Span:
    __slots__ = ("name", "layer", "parent", "start", "children")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.children = []


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span aggregates; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = Counter()              # span name -> calls
        self.inclusive_s = defaultdict(float)  # span name -> summed duration
        self.layer_calls = Counter()        # layer -> calls
        self.layer_self_s = defaultdict(float)
        self.fft_by_layer = Counter()       # layer of the innermost span -> FFTs
        self.fft_by_name = Counter()        # name of the innermost span -> FFTs
        self.fft_flop = 0.0                 # computed, 5 N log2 N per transform
        self.fft_bytes = 0                  # computed, input plus output arrays
        self.steps = Counter()              # span name -> time steps taken

    # -- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def enter(self, name: str, layer: str) -> _Span:
        span = _Span(name, layer, self.current(), self._clock())
        self._stack().append(span)
        return span

    def exit(self, span: _Span) -> None:
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            covered = covered_length(span.children, span.start, end)
            self.calls[span.name] += 1
            self.layer_calls[span.layer] += 1
            self.inclusive_s[span.name] += end - span.start
            self.layer_self_s[span.layer] += (end - span.start) - covered
            if span.parent is not None:
                span.parent.children.append((span.start, end))

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        s = self.enter(name, layer)
        try:
            yield s
        finally:
            self.exit(s)

    def wrap(self, fn, layer: str, name: str, steps=None):
        """Span-recording wrapper; ``steps(bound_args)`` counts time steps."""
        sig = inspect.signature(fn) if steps is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = steps(bound.arguments)
                with self._lock:
                    self.steps[name] += n
            s = self.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(s)

        traced.__traced__ = True
        return traced

    def wrap_fft(self, fn, name: str):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            owner = self.current()
            s = self.enter(name, "fft")
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self.exit(s)
            n = out.size
            with self._lock:
                self.fft_by_layer[owner.layer if owner else None] += 1
                self.fft_by_name[owner.name if owner else None] += 1
                self.fft_flop += 5.0 * n * math.log2(n)
                self.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out

        traced.__traced__ = True
        return traced

    # -- installation

    @contextlib.contextmanager
    def import_spans(self, package: str = "rlab"):
        """Record each layer module body executed while importing ``package``."""
        finder = _ImportSpanFinder(self, package)
        sys.meta_path.insert(0, finder)
        try:
            yield
        finally:
            sys.meta_path.remove(finder)

    @contextlib.contextmanager
    def instrument(self, package: str = "rlab"):
        """Wrap layer functions, ``METHODS`` and FFT entry points until exit."""
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        prefix = package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or hasattr(val, "__traced__"):
                    continue
                home = getattr(val, "__module__", "") or ""
                layer = home[len(prefix):] if home.startswith(prefix) else None
                if layer not in LAYERS:
                    continue
                if val not in wrappers:
                    name = f"{layer}.{val.__qualname__}"
                    wrappers[val] = self.wrap(val, layer, name, STEPS.get(name))
                rebind(mod, attr, wrappers[val])
        for layer, cls_name, attr in METHODS:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            name = f"{layer}.{cls_name}" + ("" if attr == "__init__" else f".{attr}")
            rebind(cls, attr, self.wrap(cls.__dict__[attr], layer, name, STEPS.get(name)))

        fft_targets = {}
        for modname in FFT_MODULES:
            try:  # numpy imports numpy.fft lazily; scipy may be absent
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for fname in FFT_FUNCTIONS:
                orig = getattr(mod, fname)
                fft_targets[id(orig)] = self.wrap_fft(orig, f"fft.{modname}.{fname}")
                rebind(mod, fname, fft_targets[id(orig)])
        for mod in modules:  # names bound by ``from numpy.fft import fftn``
            for attr, val in list(vars(mod).items()):
                if id(val) in fft_targets:
                    rebind(mod, attr, fft_targets[id(val)])

        rebind(ThreadPoolExecutor, "submit", self._submit_with_parent(ThreadPoolExecutor.submit))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def _submit_with_parent(self, submit):
        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = self.current()

            def run(*a, **kw):
                self._local.inherited = parent
                try:
                    return fn(*a, **kw)
                finally:
                    self._local.inherited = None

            return submit(pool, run, *args, **kwargs)

        return traced_submit

    # -- results

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "layer_calls": dict(self.layer_calls),
            "layer_self_s": dict(self.layer_self_s),
            "fft_by_layer": {str(k): v for k, v in self.fft_by_layer.items()},
            "fft_by_name": {str(k): v for k, v in self.fft_by_name.items()},
            "fft_flop": self.fft_flop,
            "fft_bytes": self.fft_bytes,
            "steps": dict(self.steps),
        }


class _ImportSpanFinder(importlib.abc.MetaPathFinder):
    """Times the execution of each layer module body as a span of its layer."""

    def __init__(self, tracer: Tracer, package: str):
        self._tracer = tracer
        self._prefix = package + "."

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(self._prefix):
            return None
        layer = fullname[len(self._prefix):]
        if layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module, tracer = spec.loader.exec_module, self._tracer

        def timed_exec_module(module):
            with tracer.span(f"{layer}.<import>", layer):
                exec_module(module)

        spec.loader.exec_module = timed_exec_module
        return spec
