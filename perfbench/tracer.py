"""Span tracer that wraps a package's functions from the outside.

The package binds many names at import time (``from .gtrs import
generator_matrix``), so wrapping only the defining module would miss most
call sites.  ``Tracer.install`` therefore replaces every module-level binding
of a traced function in every loaded module of the package, and patches
methods on their classes.  ``uninstall`` puts the originals back.

Spans are kept in memory in compact arrays (name, start, end, parent span,
op id, error flag, note) and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

class Target:
    """One traced callable: ``owner`` is a module name, or ``module:Class``
    for a method; ``note`` maps (args, result) of a completed call to a
    number stored with its span."""

    def __init__(self, span_name: str, owner: str, attr: str, note=None):
        self.span_name = span_name
        self.owner = owner
        self.attr = attr
        self.note = note


class Spans:
    """Column store of finished and open spans; index order is start order."""

    def __init__(self):
        self.names: list[str] = []          # name id -> span name
        self.name_id: dict[str, int] = {}
        self.error_types: list[str] = [""]  # error id -> exception class name
        self.error_id: dict[str, int] = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.error = array("i")
        self.note = array("d")

    def __len__(self):
        return len(self.name)

    def intern(self, span_name: str) -> int:
        if span_name not in self.name_id:
            self.name_id[span_name] = len(self.names)
            self.names.append(span_name)
        return self.name_id[span_name]

    def intern_error(self, error: str) -> int:
        if error not in self.error_id:
            self.error_id[error] = len(self.error_types)
            self.error_types.append(error)
        return self.error_id[error]

    def add(self, name: str, start: float, end: float, parent: int = -1,
            op: int = 0, error: str = "", note: float = 0.0) -> int:
        """Append a finished span (used by tests)."""
        idx = len(self.name)
        self.name.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        self.error.append(self.intern_error(error))
        self.note.append(note)
        return idx

    def write(self, path: str):
        """Write every span as one tab-separated line of a gzip file; times
        are integer nanoseconds after the first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\terror\tnote\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{round((self.start[i] - t0) * 1e9)}\t"
                         f"{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t"
                         f"{self.op[i]}\t{self.error_types[self.error[i]]}\t"
                         f"{self.note[i]:g}\n")


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and overlaps merged)."""
    start, end = spans.start, spans.end
    out = [e - s for s, e in zip(start, end)]
    children = defaultdict(list)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(kids, key=start.__getitem__):
            cs, ce = max(start[c], lo), min(end[c], hi)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def outermost(spans: Spans) -> list[bool]:
    """True for spans with no ancestor of the same name, so that summing
    their durations never counts a recursive call twice."""
    out = []
    path: list[int] = []
    active: Counter = Counter()
    for i in range(len(spans)):
        p = spans.parent[i]
        while path and path[-1] != p:
            active[spans.name[path.pop()]] -= 1
        out.append(active[spans.name[i]] == 0)
        path.append(i)
        active[spans.name[i]] += 1
    return out


class Tracer:
    """Install wrappers around ``targets``; record one span per call."""

    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.spans = Spans()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans = self.spans
        nid = spans.intern(target.span_name)
        stack = self._stack
        note = target.note
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans.name)
            spans.name.append(nid)
            spans.start.append(0.0)
            spans.end.append(0.0)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(tracer.op)
            spans.error.append(0)
            spans.note.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.error[idx] = spans.intern_error(type(exc).__name__)
                raise
            else:
                if note is not None:
                    spans.note[idx] = note(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.start[idx] = t0
                spans.end[idx] = t1

        return functools.update_wrapper(traced, fn)

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for target in self.targets:
            mod_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                self._set(cls, target.attr, self._wrap(target, cls.__dict__[target.attr]))
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        return self

    def uninstall(self):
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
