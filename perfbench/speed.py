"""How fast the machine runs Python right now, from a fixed kernel.

The host these runs are made on is shared: over an hour the same
package's check time can double, and every time a run measures moves
with it.  So each run also times a fixed pure-Python kernel between its
operations (with the measurement clock stopped), and the run's times
are reported at a reference speed::

    reported = measured * REFERENCE_S / median(kernel samples of the run)

(rates are scaled the other way).  The kernel does in miniature what
the analysis spends its time on: lexing text with a regular
expression, building small objects, a worklist fixpoint and
breadth-first reachability over a graph of 50k nodes.  It is mostly
interpreter work, like the analysis; the part that allocates most
(lexing and building) gives it about as many page faults per second as
a ``repro check`` process, so that a host on which faults get dearer
slows both alike, and not the kernel more.  The kernel is part of the
benchmark, not of the program, so a change to the program moves the
reported times and not the scale.  Its inputs are fixed: they do not
depend on the workload seed.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

#: The kernel's median time in a benchmark run on the reference host
#: (2-CPU x86-64 VM) in a calm period: reported times are seconds at
#: that speed.
REFERENCE_S = 0.136

_WORDS = ["int", "x", "y", "=", "seteuid", "(", ")", ";", "if", "{", "}",
          "return", "0", "1", "fn_12", "while", "execl", ",", "+", "else"]
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<num>\d+)|(?P<op>\S))")
_NODES = 50_000


class _Node:
    __slots__ = ("kind", "text", "succ")

    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text
        self.succ: list[int] = []


class Kernel:
    """The fixed inputs, built once, and the timed work over them."""

    def __init__(self) -> None:
        rng = random.Random(20261017)
        self.text = " ".join(rng.choice(_WORDS) for _ in range(48_000))
        self.succ = [[rng.randrange(_NODES) for _ in range(3)] for _ in range(_NODES)]

    def _lex_and_build(self) -> int:
        tokens = [(m.lastgroup, m.group(m.lastgroup)) for m in _TOKEN.finditer(self.text)]
        nodes = [_Node(kind, text) for kind, text in tokens]
        last: dict[str, int] = {}
        for index, node in enumerate(nodes):
            previous = last.get(node.text)
            if previous is not None:
                nodes[previous].succ.append(index)
            last[node.text] = index
        return len(nodes)

    def _fixpoint(self) -> int:
        labels = [1 << (n % 5) for n in range(_NODES)]
        work = list(range(_NODES))
        changes = 0
        while work:
            n = work.pop()
            here = labels[n]
            for m in self.succ[n]:
                there = labels[m]
                if here & ~there:
                    labels[m] = there | here
                    changes += 1
                    work.append(m)
        return changes

    def _reach(self) -> int:
        total = 0
        for source in range(0, _NODES, 10_000):
            seen = {source}
            frontier = [source]
            while frontier:
                following = []
                for n in frontier:
                    for m in self.succ[n]:
                        if m not in seen:
                            seen.add(m)
                            following.append(m)
                frontier = following
            total += len(seen)
        return total

    def seconds(self) -> float:
        """Wall time of one pass.  The collector is off during it (the
        kernel makes no cycles), so the benchmark's own heap, which
        differs between workloads, does not slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._lex_and_build()
            self._fixpoint()
            self._reach()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class Speed:
    """The kernel samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._kernel: Kernel | None = None

    def sample(self) -> float:
        if self._kernel is None:
            self._kernel = Kernel()
        seconds = self._kernel.seconds()
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / statistics.median(self.samples)


#: how a metric's value is scaled, by unit: times shrink on a slow
#: machine's run, rates grow; counts, ratios and sizes are left alone
TIME_UNITS = {"s"}
RATE_UNITS = {"1/s", "kloc/s"}


def at_reference(value: float, unit: str, scale: float) -> float:
    """``value`` in ``unit`` at the reference speed."""
    if unit in TIME_UNITS:
        return value * scale
    if unit in RATE_UNITS:
        return value / scale
    return value
