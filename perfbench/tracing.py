"""Spans around the public functions of padiccf, from outside the package.

Each function is wrapped at every module attribute that holds it, because
callers look names up at call time in their own module: construct.py
imports discrete_log by name, so padiccf.construct.discrete_log is wrapped
as well as padiccf.core.discrete_log. A name that no longer exists is
recorded as missing instead of failing the run.

Spans (op, id, parent, name, start, end) stay in memory up to a cap and are
written when the run ends. Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs whose calls and self time are reported
FUNCTIONS = (
    ("core", "vp"), ("core", "hensel_digits"), ("core", "mod_inverse"),
    ("core", "mult_order"), ("core", "discrete_log"),
    ("engine", "step"), ("engine", "expand"), ("engine", "expand_rational"),
    ("engine", "convergents"), ("engine", "periodic_limit"), ("engine", "normalize"),
    ("analysis", "is_regular"), ("analysis", "galois_check"),
    ("analysis", "trace_zero_classify"),
    ("construct", "is_nice"), ("construct", "construct"),
)
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.missing = []
        self.op = None
        self._stack = []  # [span id, time covered by children]
        self._next = 0
        self._patched = []

    def install(self):
        """Wrap every FUNCTIONS entry wherever padiccf modules hold it."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "padiccf" or name.startswith("padiccf.")]
        for modname, fn in FUNCTIONS:
            label = f"{modname}.{fn}"
            home = importlib.import_module(f"padiccf.{modname}")
            orig = getattr(home, fn, None)
            if not callable(orig):
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, label, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[label] += 1
                self.self_s[label] += dur - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op, sid, parent, label, start, end))
                else:
                    self.dropped += 1

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "dropped": self.dropped, "missing": self.missing,
                       "spans": self.spans}, fh)
            fh.write("\n")
