"""In-process span recorder that wraps a package's public functions from outside.

`Tracer.install` replaces every public function (and public method of a
public class) defined in the given modules by a timing wrapper, and rebinds
every reference to it in those modules, so calls made through names imported
with ``from .x import f`` are traced too. Each call records a span
(name, start, end, parent); per name the tracer keeps calls, total (inclusive)
time and self time, which is the total minus the time covered by child spans.
"""

import inspect
import time


class Tracer:
    def __init__(self, capture=(), max_spans=50_000):
        self.max_spans = max_spans
        self.spans = []  # (name, start, end, parent span index or -1)
        self.spans_dropped = 0
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.originals = {}  # name -> unwrapped callable
        self.last_result = {}  # name -> last return value, for names in `capture`
        self.capture = set(capture)
        self._stack = []  # [span index, child time] per open call

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        capture = name in self.capture

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < self.max_spans:
                spans.append(None)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if capture:
                self.last_result[name] = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules):
        """Wrap the public callables defined in `modules` and rebind their references."""
        replace = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException):
                        continue
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(raw):
                            continue
                        if inspect.isgeneratorfunction(raw):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        self.originals[name] = raw
                        setattr(obj, meth, self._wrap(name, raw))
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{short}.{attr}"
                    self.originals[name] = obj
                    replace[id(obj)] = self._wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    setattr(module, attr, replace[id(obj)])

    def report(self):
        spans = [s for s in self.spans if s is not None]
        return {
            "wrapped": sorted(self.originals),
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "spans": spans,
            "spans_dropped": self.spans_dropped,
        }
