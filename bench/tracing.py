"""In-memory span tracing of tricl's public functions, from outside the package.

`Tracer.install` replaces every public function defined in a ``tricl.*``
module at every ``tricl.*`` module attribute that binds it (for example both
``tricl.exactlinalg.cokernel`` and ``tricl.classgroup.cokernel``) by one
wrapper that records a span.  Calls made inside the package look their
callee up through these module attributes, so calls between layers are
captured as nested spans.  `uninstall` restores the original bindings.

Spans (name, parent span, op id, start, end) stay in one flat array and
are written out only when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

PACKAGE = "tricl"
SMITH = "exactlinalg.smith_invariants"
FIELDS = 5


def span_name(function) -> str:
    """Layer-qualified name such as ``exactlinalg.cokernel``."""
    return f"{function.__module__.rsplit('.', 1)[-1]}.{function.__name__}"


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part covered by its direct children.

    Spans of one thread nest strictly and siblings never overlap, so the
    covered part is the sum of the children's durations.
    """
    covered = [0.0] * len(start)
    for index, up in enumerate(parent):
        if up >= 0:
            covered[up] += end[index] - start[index]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        # Five doubles per span: name id, parent span, op id, start, end.
        # One `extend` per span keeps the record whole when a deadline
        # signal interrupts the wrapper.
        self.data = array("d")
        self.op_id = -1
        self.smith = {"cells": 0, "max_cells": 0, "max_entry_bits_in": 0, "max_factor_bits_out": 0}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, function):
        """Return a span-recording wrapper around `function`."""
        name_id = len(self.names)
        label = span_name(function)
        self.names.append(label)
        observe_smith = label == SMITH
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            data = self.data
            index = len(data) // FIELDS
            data.extend((name_id, stack[-1] if stack else -1, self.op_id, clock(), 0.0))
            try:
                stack.append(index)
                result = function(*args, **kwargs)
            finally:
                data[index * FIELDS + 4] = clock()
                while stack and stack[-1] >= index:
                    stack.pop()
            if observe_smith:
                self._observe_smith(args[0], result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = function.__name__
        return traced

    def _observe_smith(self, matrix, data) -> None:
        cells = matrix.rows * matrix.cols
        stats = self.smith
        stats["cells"] += cells
        stats["max_cells"] = max(stats["max_cells"], cells)
        entry_bits = max((abs(e).bit_length() for e in matrix.entries), default=0)
        stats["max_entry_bits_in"] = max(stats["max_entry_bits_in"], entry_bits)
        stats["max_factor_bits_out"] = max(
            stats["max_factor_bits_out"],
            max((f.bit_length() for f in data.invariant_factors), default=0),
        )

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        ]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value) and value.__module__.startswith(prefix)):
                    continue
                if value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> tuple[list[int], list[int], list[int], list[float], list[float]]:
        """Columns (name id, parent, op id, start, end) of every span.

        A span whose end was never written (a deadline struck inside the
        wrapper) is closed at its start.
        """
        data = self.data
        name = [int(x) for x in data[0::FIELDS]]
        parent = [int(x) for x in data[1::FIELDS]]
        op = [int(x) for x in data[2::FIELDS]]
        start = list(data[3::FIELDS])
        end = [max(e, s) for s, e in zip(start, data[4::FIELDS])]
        return name, parent, op, start, end

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (summed self time)."""
        name, parent, _, start, end = self.spans()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name_id, own in zip(name, self_times(start, end, parent)):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += own
        return dict(out)

    def write(self, path) -> None:
        """Write every span as ``op,name,start_us,end_us,parent`` CSV."""
        name, parent, op, start, end = self.spans()
        base = start[0] if start else 0.0
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("op,name,start_us,end_us,parent\n")
            for i in range(len(start)):
                stream.write(
                    f"{op[i]},{self.names[name[i]]},{(start[i] - base) * 1e6:.1f},"
                    f"{(end[i] - base) * 1e6:.1f},{parent[i]}\n"
                )
