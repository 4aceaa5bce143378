"""Pause CPython's cyclic garbage collector while one analysis runs.

An analysis builds a large heap of container objects: tokens, AST, CFG,
constraint tables and solved forms.  None of it holds a reference cycle,
so reference counting frees all of it.  The cyclic collector still
rescans it every time an allocation threshold trips, and a full
collection walks every live container.  On the four Table 1 packages
that was 23% of ``repro check`` time, and over an edit session most of
it went to full collections that reclaimed nothing (docs/PERFORMANCE.md
gives the measurements).

:func:`paused` turns the collector off for the extent of one request or
one-shot command.  The collector's switch is process-wide, so the pause
is too: one depth count under one lock, shared by every thread.  The
outermost entry records whether the collector was enabled and disables
it; the outermost exit restores what it recorded.  Overlapping pauses
on several threads therefore keep it off until the last one ends, and a
caller that had disabled the collector itself finds it still disabled.
Between requests the collector runs as before, so a long-lived server
collects whatever cycles other code leaves.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def paused() -> Iterator[None]:
    """Keep the cyclic collector disabled until the outermost pause exits."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
