"""Span recording around the package's public calls, for the traced run.

The tracer swaps each traced function for a wrapper in every loaded
``cvwitness`` module that holds a reference to it, so calls the package makes
internally (``decide_separability`` -> ``validate_cm`` -> ...) are recorded as
child spans.  Nothing in the package is edited; ``uninstall`` restores the
original objects, so untraced passes run the unmodified code.
"""

import sys
import time

# (module, attribute, key) triples recorded as layer spans; the layer name is
# "<module>.<attribute>".  `key` names the item key its busy time is split by
# ("shape" for Fock register shapes, "order" for ladder orders), or is None.
TRACED = [
    ("symplectic", "validate_cm", None),
    ("standard_form", "reduce_to_standard_form", None),
    ("criteria", "decide_separability", None),
    ("criteria", "ppt_decide", None),
    ("criteria", "feasibility_search", None),
    ("witness", "minmax_optimize", None),
    ("witness", "lambda_closed_form", None),
    ("fock", "gaussian_op_fock", "shape"),
    ("fock", "seesaw_lambda", "shape"),
    ("nongauss", "NonGaussState", "order"),
    ("nongauss", "mean_on_detector", "order"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace_id", "key",
                 "failed", "extra")

    def __init__(self, sid, name, parent, trace_id, key):
        self.id = sid
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.key = key
        self.failed = False
        self.extra = None
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "trace_id": self.trace_id, "key": self.key,
                "failed": self.failed, "extra": self.extra}


def _extra(name, result):
    """Exact counts taken from a call's return value."""
    if name == "criteria.feasibility_search":
        return {"cert": result is not None}
    if name == "fock.seesaw_lambda":
        return {"iterations": int(result.iterations)}
    return None


class Tracer:
    """Keeps spans in memory; the caller writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.trace_id = None
        self.key = None
        # wrappers record only while an item body runs, not during its checks
        self.enabled = False

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.trace_id, self.key)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self.close(span)
            span.extra = _extra(name, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cvwitness" or n.startswith("cvwitness."))]
        for mod_name, attr, _ in TRACED:
            original = getattr(sys.modules["cvwitness." + mod_name], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()


def layer_totals(spans, factor):
    """Per (layer, key): calls, failed, self time and exact counts.

    Self time is a span's duration minus the time covered by its children
    (calls run on one thread, so children never overlap), scaled by
    ``factor(start, end)``.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in spans:
        t = out.setdefault((s.name, s.key), {"calls": 0, "failed": 0, "self_s": 0.0,
                                              "cert": 0, "iterations": 0})
        t["calls"] += 1
        t["failed"] += int(s.failed)
        t["self_s"] += ((s.end - s.start) - child_time.get(s.id, 0.0)) * factor(s.start, s.end)
        if s.extra:
            t["cert"] += int(s.extra.get("cert", False))
            t["iterations"] += s.extra.get("iterations", 0)
    return out
