"""Spans around the calls into each gofmetrics layer, recorded from outside.

`Tracer.install` wraps every public function of the program's modules and
rebinds the wrapper under each name a caller looks it up by: module
globals, the package namespace, classmethods, and registry dicts such as
the CLI's parser table.  Spans are aggregated in memory by call path (a
node per distinct chain of wrapped calls, with its parent), so memory stays
bounded however many million scalar calls a run makes; `dump` writes them
when the run ends.  A node's self time is its span time minus the span time
of its children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time


class Node:
    __slots__ = ("name", "parent", "children", "calls", "total_ns", "units")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total_ns = 0
        self.units = 0  # work counted at this boundary, e.g. matrix cells

    @property
    def self_ns(self) -> int:
        return self.total_ns - sum(c.total_ns for c in self.children.values())

    def path(self) -> str:
        node, names = self, []
        while node is not None:
            names.append(node.name)
            node = node.parent
        return "/".join(reversed(names))


class Tracer:
    """Records spans into an aggregated call tree rooted at one benchmark op.

    `units` maps a span name to a function of (args, result) giving the work
    that call did, such as the cells of a normalized matrix.
    """

    def __init__(self, units=None, root_name: str = "bench.op"):
        self.root = Node(root_name, None)
        self._stack = [self.root]
        self._undo: list = []
        self._units = units or {}

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        count = self._units.get(name)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total_ns += clock() - start
                node.calls += 1
                stack.pop()
            if count is not None:
                node.units += count(args, result)
            return result

        return wrapper

    def op(self, fn, *args):
        """Run one benchmark operation as a root span; returns its result."""
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.root.total_ns += time.perf_counter_ns() - start
            self.root.calls += 1

    def install(self, package_name: str, counted_classes=()) -> None:
        """Wrap the public functions and classmethods of every loaded module
        of the package, and the constructors named in `counted_classes`
        ("module.Class"), so that per-call view objects are counted too."""
        prefix = package_name + "."
        modules = [m for k, m in sorted(sys.modules.items()) if k == package_name or k.startswith(prefix)]
        for mod in modules:
            if mod.__name__ == package_name:
                continue
            short = mod.__name__[len(prefix):]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if isinstance(obj, type):
                    self._install_classmethods(short, obj)
                    if f"{short}.{name}" in counted_classes:
                        self._rebind(modules, obj, self._wrap(f"{short}.{name}", obj))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    self._rebind(modules, obj, self._wrap(f"{short}.{name}", obj))

    def _install_classmethods(self, short, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{short}.{cls.__name__}.{attr}", raw.__func__))
                setattr(cls, attr, wrapped)
                self._undo.append((setattr, cls, attr, raw))

    def _rebind(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((setattr, mod, name, orig))
                elif isinstance(val, dict):
                    _rebind_in_dict(val, orig, wrapper, self._undo)

    def uninstall(self) -> None:
        while self._undo:
            action, owner, key, value = self._undo.pop()
            action(owner, key, value)

    def nodes(self):
        todo = [self.root]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def dump(self, path) -> None:
        rows = [
            {
                "path": n.path(),
                "calls": n.calls,
                "units": n.units,
                "total_s": n.total_ns / 1e9,
                "self_s": n.self_ns / 1e9,
            }
            for n in self.nodes()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)


def _setitem(d, key, value):
    d[key] = value


def _rebind_in_dict(d: dict, orig, wrapper, undo: list) -> None:
    for key, val in list(d.items()):
        if val is orig:
            d[key] = wrapper
            undo.append((_setitem, d, key, val))
        elif dataclasses.is_dataclass(val) and not isinstance(val, type):
            for f in dataclasses.fields(val):
                if getattr(val, f.name) is orig:
                    d[key] = dataclasses.replace(val, **{f.name: wrapper})
                    undo.append((_setitem, d, key, val))
