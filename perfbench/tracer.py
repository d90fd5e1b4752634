"""Per-layer tracing from outside the program.

``install()`` rebinds each traced public function of atomdyn, in every
``atomdyn.*`` namespace that holds it, to a wrapper that records a span
(name, start, end, parent).  Methods (``chi`` and ``sample`` of every law
class, ``NormalState.spectral_mixture``) are rebound on their class.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out by ``write_spans`` when the run
ends; calls, self time and counters are aggregated as spans close.

Functions missing from the package under test are skipped: their metrics
read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import warnings
from time import perf_counter

MAX_SPANS = 100_000

_EVALUATE_KINDS = {"PureState": "pure", "NormalState": "normal", "MixedState": "mixed",
                   "AveragedState": "averaged"}


def _evaluate_name(args, kwargs):
    kind = _EVALUATE_KINDS.get(type(args[0]).__name__, "other")
    return f"channels.evaluate.{kind}"


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _expect_name(args, kwargs):
    method = _arg(args, kwargs, 3, "method", "analytic")
    return "channels.expect_function." + ("mc" if method == "mc" else "analytic")


# (module, attribute, span name or function of the call's arguments)
FUNCTIONS = [
    ("atomdyn.atoms", "make_vector", "atoms.make_vector"),
    ("atomdyn.atoms", "inner", "atoms.inner"),
    ("atomdyn.atoms", "norm", "atoms.norm"),
    ("atomdyn.algebra", "apply_shift", "algebra.apply_shift"),
    ("atomdyn.algebra", "apply_mod", "algebra.apply_mod"),
    ("atomdyn.algebra", "apply_element", "algebra.apply_element"),
    ("atomdyn.algebra", "compose", "algebra.compose"),
    ("atomdyn.algebra", "adjoint", "algebra.adjoint"),
    ("atomdyn.algebra", "weyl_residual", "algebra.weyl_residual"),
    ("atomdyn.trig", "cesaro_inner_numeric", "trig.cesaro_inner_numeric"),
    ("atomdyn.trig", "modulation_gap_numeric", "trig.modulation_gap_numeric"),
    ("atomdyn.channels", "evaluate", _evaluate_name),
    ("atomdyn.channels", "expect_function", _expect_name),
    ("atomdyn.channels", "averaged_Phi", "channels.averaged_Phi"),
    ("atomdyn.channels", "projector_value", "channels.projector_value"),
    ("atomdyn.channels", "quad", "channels.quad"),
]

# span names reported as <name>.calls and <name>.self_s
SPANS = [
    "atoms.make_vector", "atoms.inner", "atoms.norm",
    "algebra.apply_shift", "algebra.apply_mod", "algebra.apply_element",
    "algebra.compose", "algebra.adjoint", "algebra.weyl_residual",
    "rand.chi", "rand.sample",
    "trig.cesaro_inner_numeric", "trig.modulation_gap_numeric",
    "channels.evaluate.pure", "channels.evaluate.normal", "channels.evaluate.mixed",
    "channels.evaluate.averaged",
    "channels.expect_function.analytic", "channels.expect_function.mc",
    "channels.averaged_Phi", "channels.projector_value",
    "channels.NormalState.spectral_mixture", "channels.quad",
]


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []  # per-thread (aggregates, counters)
        self._ids = itertools.count(1)
        self.spans = []
        self.dropped = 0

    # -- per-thread state --------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "agg": {}, "count": {}}
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, st, name, amount=1):
        st["count"][name] = st["count"].get(name, 0) + amount

    def peak(self, st, name, value):
        st["count"][name] = max(st["count"].get(name, 0), value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, span_name, on_return=None, on_enter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            name = span_name(args, kwargs) if callable(span_name) else span_name
            # frame: name, id, time covered by children, reached quad
            frame = [name, next(self._ids), 0.0, False]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            if on_enter is not None:
                on_enter(st, stack)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                agg = st["agg"].get(name)
                if agg is None:
                    agg = st["agg"][name] = [0, 0.0]
                agg[0] += 1
                agg[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[1], name, start, end, parent))
                else:
                    self.dropped += 1
            if on_return is not None:
                on_return(st, frame, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function and method that the package has."""
        import atomdyn  # noqa: F401  (loads the package's modules)

        hooks = self._hooks()
        for module, attr, name in FUNCTIONS:
            mod = sys.modules.get(module)
            orig = getattr(mod, attr, None) if mod else None
            if orig is None:
                continue
            inner = self._counting_warnings(orig) if attr == "quad" else orig
            wrapped = self.wrap(inner, name, *hooks.get(attr, (None, None)))
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != "atomdyn" and not other_name.startswith("atomdyn."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
        self._install_methods(hooks)

    def _counting_warnings(self, fn):
        """fn, counting the IntegrationWarnings it emits instead of printing them."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            n = sum(1 for w in caught if w.category.__name__ == "IntegrationWarning")
            self.count(self._state(), "channels.integration_warnings", n)
            return result

        return counted

    def _install_methods(self, hooks):
        rand = sys.modules.get("atomdyn.rand")
        base = getattr(rand, "Distribution", None)
        classes = [c for c in vars(rand).values()
                   if isinstance(c, type) and base is not None and issubclass(c, base)] if rand else []
        for cls in classes:
            for attr in ("chi", "sample"):
                if attr in vars(cls):
                    setattr(cls, attr, self.wrap(vars(cls)[attr], f"rand.{attr}",
                                                 *hooks.get(attr, (None, None))))
        normal = getattr(sys.modules.get("atomdyn.channels"), "NormalState", None)
        if normal is not None and "spectral_mixture" in vars(normal):
            normal.spectral_mixture = self.wrap(
                vars(normal)["spectral_mixture"], "channels.NormalState.spectral_mixture")

    def _hooks(self):
        """Counters, as (on_return, on_enter) per traced attribute name."""

        def atoms_out(st, frame, args, kwargs, result):
            self.count(st, "atoms.make_vector.atoms_out", len(result))

        def peak_terms(st, frame, args, kwargs, result):
            self.peak(st, "algebra.compose.peak_terms", len(result.terms))

        def draws(st, frame, args, kwargs, result):
            self.count(st, "rand.sample.draws", len(result))

        def nodes(st, frame, args, kwargs, result):
            self.count(st, "trig.cesaro_inner_numeric.nodes", _arg(args, kwargs, 2, "cfg", None).steps)

        def expectation(st, frame, args, kwargs, result):
            if frame[0].endswith(".mc"):
                self.count(st, "channels.mc_samples", _arg(args, kwargs, 4, "mc_samples", 100_000))
            else:
                self.count(st, "expect.analytic")
                self.count(st, "expect.quad", 1 if frame[3] else 0)

        def projector(st, frame, args, kwargs, result):
            if _arg(args, kwargs, 2, "method", "analytic") == "mc":
                self.count(st, "channels.mc_samples", _arg(args, kwargs, 3, "mc_samples", 10_000))

        def reach_quad(st, stack):
            for frame in reversed(stack):
                if frame[0] == "channels.expect_function.analytic":
                    frame[3] = True
                    break

        return {
            "make_vector": (atoms_out, None),
            "compose": (peak_terms, None),
            "sample": (draws, None),
            "cesaro_inner_numeric": (nodes, None),
            "expect_function": (expectation, None),
            "projector_value": (projector, None),
            "quad": (None, reach_quad),
        }

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        agg, count = {}, {}
        with self._lock:
            for st in self._threads:
                for name, (calls, self_s) in st["agg"].items():
                    a = agg.setdefault(name, [0, 0.0])
                    a[0] += calls
                    a[1] += self_s
                for name, value in st["count"].items():
                    if name == "algebra.compose.peak_terms":
                        count[name] = max(count.get(name, 0), value)
                    else:
                        count[name] = count.get(name, 0) + value
        out = {}
        for name in SPANS:
            calls, self_s = agg.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in ("atoms.make_vector.atoms_out", "algebra.compose.peak_terms",
                     "rand.sample.draws", "trig.cesaro_inner_numeric.nodes",
                     "channels.mc_samples"):
            out[name] = count.get(name, 0)
        analytic = count.get("expect.analytic", 0)
        out["channels.closed_form_ratio"] = (
            (analytic - count.get("expect.quad", 0)) / analytic if analytic else 0.0)
        out["channels.integration_warnings"] = count.get("channels.integration_warnings", 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")
