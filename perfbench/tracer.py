"""Outside-in span tracer for the qsteane modules.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original in any
qsteane module (`steane`, `table1` and `cli` each hold their own
`min_distance`, for example), so a call lands in the right parent span
whichever module makes it. Spans (name, parent, start, end, extra) are
kept in memory and written out by the caller. Generators are counted per
item instead of timed, because their time belongs to the consumer, and
per-word or per-point helpers such as `lex_key` are counted per call,
because a span per call would cost more than the call. No file of the
program is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "qsteane"
MODULES = ("gf2", "distances", "steane", "bch", "table1", "bounds", "cli")
# Called once per word or per curve point: a span each would cost more
# than the call, so their time stays with the caller.
COUNT_ONLY = ("gf2.lex_key", "bounds.entropy", "bounds.bound_gf4", "bounds.bound_cs",
              "bounds.bound_steane", "bounds.bound_thm4")


def _enumerated(report):
    return report.enumerated_count


def _certified(quantum):
    return int(quantum.d_exact is not None and quantum.d_exact >= quantum.d_lower)


# Value recorded with a span, taken from the function's return value.
EXTRA = {
    "distances.min_distance": _enumerated,
    "distances.second_gdw": _enumerated,
    "distances.quantum_distance_exact": _enumerated,
    "steane.certified_enlarge": _certified,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end, extra)
        self.counts = defaultdict(int)
        self._stack = [-1]

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                label = f"{short}.{name}"
                if label in COUNT_ONLY:
                    wrappers[id(obj)] = (obj, self._counter(label, obj))
                elif inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._generator(label, obj))
                else:
                    wrappers[id(obj)] = (obj, self._span(label, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        linear_code = sys.modules[f"{PACKAGE}.gf2"].LinearCode
        linear_code.__init__ = self._span("gf2.LinearCode.init", linear_code.__init__)

    def _span(self, label, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, parent, start, end, None)
            if extra is not None:
                spans[index] = (label, parent, start, end, extra(result))
            return result

        return wrapper

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                for item in inner:
                    counts[label] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart\tend\textra\n")
            for i, (label, parent, start, end, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{label}\t{start:.9f}\t{end:.9f}\t{'' if extra is None else extra}\n")

    def summary(self):
        """Per-name calls, inclusive and self time, extras; per-module self time."""
        child_time = [0.0] * len(self.spans)
        for label, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0})
        modules = defaultdict(float)
        under = defaultdict(int)  # (parent name, child name) -> calls
        for i, (label, parent, start, end, extra) in enumerate(self.spans):
            own = end - start - child_time[i]
            entry = names[label]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["extra"] += extra or 0
            modules[label.split(".", 1)[0]] += own
            if parent >= 0:
                under[(self.spans[parent][0], label)] += 1
        return {"names": dict(names), "modules": dict(modules), "counts": dict(self.counts),
                "under": {f"{p}>{c}": v for (p, c), v in under.items()}}
