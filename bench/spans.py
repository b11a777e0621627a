"""Span tracing for the benchmark's traced run.

`Tracer.install()` wraps, from outside the package, the public functions
and methods of each module of `negabase` (plus the arithmetic and
comparison operators of its classes), so the program's source stays
untouched.  Every call becomes a span: name, start, end, parent and an
optional integer tag.  Spans live in compact arrays in memory and are
written out once, when the run ends.  `uninstall()` puts the original
functions back, so untimed checks and untraced passes run without wrappers.
"""

import functools
import importlib
import json
import time
from array import array

# module of the package -> layer name used in metric names
LAYERS = {
    "_polys": "polys",
    "field": "field",
    "words": "words",
    "schemes": "schemes",
    "admissibility": "admissibility",
    "oracle": "oracle",
    "syntax": "syntax",
    "cli": "cli",
}

_OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__pow__", "__truediv__", "__rtruediv__", "__eq__",
    "__lt__", "__le__", "__gt__", "__ge__", "__post_init__",
))

_ROOT = -1


def _traceable(name):
    return not name.startswith("_") or name in _OPERATORS


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack = [_ROOT]
        self._undo = []
        self._tags = {}

    def name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- spans recorded by the benchmark itself ------------------------------

    def begin(self, name, tag=0):
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrapping --------------------------------------------------------------

    def tag_with(self, qualname, measure):
        """Record measure(args, result) as the tag of spans of `qualname`
        (for example "schemes.eval_digits"); set before install()."""
        self._tags[qualname] = measure

    def _wrap(self, fn, qualname):
        nid = self.name_id(qualname)
        names, parents, starts, ends, tags = (
            self.name, self.parent, self.start, self.end, self.tag)
        stack = self._stack
        clock = time.perf_counter
        measure = self._tags.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                tags[idx] = measure(args, result)
            return result

        return traced

    def install(self, package="negabase"):
        wrapped = {}          # id(original) -> wrapper, for re-bound names
        modules = []
        for mod_name, layer in LAYERS.items():
            mod = importlib.import_module(f"{package}.{mod_name}")
            modules.append(mod)
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
                elif (callable(value) and _traceable(attr)
                      and getattr(value, "__module__", None) == mod.__name__):
                    wrapped[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        # functions are imported by name into other modules and the package
        for mod in modules + [importlib.import_module(package)]:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if not _traceable(attr):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                new = classmethod(self._wrap(member.__func__, qual))
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, qual))
            elif callable(member) and not isinstance(member, type):
                new = self._wrap(member, qual)
            else:
                continue
            self._undo.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path):
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:H", "parent:i", "start:d", "end:d", "tag:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.tag):
                arr.tofile(fh)


def read(path):
    """Spans written by Tracer.write, as a SpanSet."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "i", "d", "d", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return SpanSet(header["names"], *arrays)


class SpanSet:
    """Spans plus derived durations and self times (duration minus the
    time covered by direct children)."""

    def __init__(self, names, name, parent, start, end, tag):
        self.names = names
        self.name = name
        self.parent = parent
        self.tag = tag
        n = len(start)
        self.duration = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += self.duration[i]
        self.self_time = [self.duration[i] - child[i] for i in range(n)]

    @classmethod
    def of(cls, tracer):
        return cls(tracer.names, tracer.name, tracer.parent, tracer.start,
                   tracer.end, tracer.tag)
