"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps every plain function that a module of the package
lists in `__all__`, plus any extra (module, name) pairs such as the CLI
entry point, and rebinds each wrapper in every module namespace of the
package that holds the original function object. The rebinding is what
makes calls between modules visible: `from .bell import bell_value` copies
the name into the importer, so wrapping `bell.bell_value` alone would miss
the call from `protocol`.

Each call records one span: name, parent span, start, end and the op it
belongs to. Spans stay in memory until the run writes them out. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# A span is the tuple (name, parent index or -1, start, end, op).
NAME, PARENT, START, END, OP = range(5)


def package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]


def public_functions(package: str, extra=()) -> dict:
    """Map 'module.function' to the function object for every traced target.

    Targets are the plain functions a module lists in `__all__` and defines
    itself (re-exports are skipped, they are traced where they are defined),
    plus `extra` (module, name) pairs. A listed name that no longer exists
    is skipped, so its metrics go missing instead of failing the run.
    """
    targets = {}
    for module in package_modules(package):
        short = module.__name__[len(package) + 1:] or package
        names = [(n, False) for n in getattr(module, "__all__", ())]
        names += [(n, True) for m, n in extra if m == short]
        for name, forced in names:
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and (forced or fn.__module__ == module.__name__):
                targets[f"{short}.{name}"] = fn
    return targets


def rebind(package: str, replacements: dict) -> list:
    """Point every module-level name bound to an original at its replacement.

    `replacements` maps id(original) to (original, replacement). Returns the
    undo list for `restore`.
    """
    undo = []
    for module in package_modules(package):
        for attr, value in list(vars(module).items()):
            pair = replacements.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
                undo.append((module, attr, value))
    return undo


def restore(undo: list) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """Records a span per call of every wrapped function.

    Spans are kept in flat arrays rather than one object per call, so that
    tracing does not add garbage-collected containers to the traced program.
    """

    def __init__(self):
        self.op = 0
        self.names: set[str] = set()
        self._name: list[str] = []
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._op = array("l")
        self._stack: list[int] = []
        self._undo: list = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self._name, self._parent, self._start, self._end, self._op))

    def wrap(self, name: str, fn):
        names, parents, starts, ends, ops = self._name, self._parent, self._start, self._end, self._op
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, package: str, extra=()) -> None:
        targets = public_functions(package, extra)
        self.names = set(targets)
        self._undo = rebind(package, {id(fn): (fn, self.wrap(name, fn)) for name, fn in targets.items()})

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def write(self, path) -> None:
        fields = ("name", "parent", "start", "end", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def child_cover(spans: list) -> list[float]:
    """Per span, the time covered by the union of its children's intervals.

    Spans are listed in start order, so each parent's children arrive in
    start order and one running end per parent merges overlapping intervals.
    """
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            continue
        lo = max(span[START], reach[parent])
        if span[END] > lo:
            covered[parent] += span[END] - lo
        reach[parent] = max(reach[parent], span[END])
    return covered


def summarise(spans: list) -> dict:
    """Per span name: number of calls, total seconds and self seconds."""
    covered = child_cover(spans)
    out: dict[str, dict] = {}
    for span, cover in zip(spans, covered):
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - cover
    return out


def nesting_problems(spans: list, root: str, ops) -> list[str]:
    """What is wrong with the span trees of `ops`, or [] when nothing is.

    Every op must have exactly one root span, named `root`, and every child
    span must lie within its parent's interval. When that holds, the self
    times of an op's spans add up to its root span's duration.
    """
    roots: dict[int, list[str]] = {op: [] for op in ops}
    problems = []
    for span in spans:
        if span[PARENT] < 0:
            roots.setdefault(span[OP], []).append(span[NAME])
            continue
        parent = spans[span[PARENT]]
        if span[START] < parent[START] or span[END] > parent[END]:
            problems.append(f"op {span[OP]}: {span[NAME]} is not within its parent {parent[NAME]}")
    problems += [f"op {op}: root spans {names}, expected [{root!r}]" for op, names in roots.items() if names != [root]]
    return problems
