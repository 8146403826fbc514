"""Spans and counters recorded around the library's layer boundaries.

Nothing inside the library changes: ``Tracer.install`` replaces every
public function of each layer module, wherever a module of the package has
bound it (``engelgraph.survey`` imports ``build_group`` from ``io``, for
instance), with a wrapper that records a span.  ``Group.__init__`` gets a
span too, while ``Group.mul`` and ``Permutation.__mul__`` only get call
counters: they run millions of times, and a span each would swamp the run.

Spans stay in memory until the run ends; ``write`` then saves them, and
``stats.self_times`` turns them into self seconds per name.
"""

from __future__ import annotations

import functools
import inspect
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("permutations", "groups", "families", "io", "engel", "graphs", "survey")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.counts: dict[str, int] = {"graphs.vertices": 0, "graphs.edges": 0}
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        cell = [0]
        self._cells[name] = cell

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the layer boundaries of ``package`` (the imported
        ``engelgraph``) until ``uninstall``."""
        prefix = package.__name__ + "."

        def graph_size(g) -> None:
            self.counts["graphs.vertices"] += g.vertex_count
            self.counts["graphs.edges"] += g.edge_count

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                hook = graph_size if f"{layer}.{attr}" == "graphs.build_engel_graph" else None
                wrapped[obj] = self.span(f"{layer}.{attr}", obj, hook)
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        group_cls = package.groups.Group
        perm_cls = package.permutations.Permutation
        self._patch(group_cls, "__init__", self.span("groups.Group_init", group_cls.__init__))
        self._patch(group_cls, "mul", self._counted("groups.mul_calls", group_cls.mul))
        self._patch(perm_cls, "__mul__", self._counted("permutations.mul_calls", perm_cls.__mul__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        for name, cell in self._cells.items():
            self.counts[name] = cell[0]

    def write(self, path: Path) -> None:
        """One line per span: index, parent index, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, (nid, parent, start, end) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
