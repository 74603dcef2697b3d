"""The sealed store: build with the cyclic collector paused, then freeze.

A stored document is one GC-tracked object per node, its ``NodeId``
(the columns are lists and arrays, and the value index's key tuples
hold only atoms, which a collection untracks), plus a few per tag.
Those objects never die before the document is replaced and never form
a reference cycle.  Left in generation 2 they make every full
collection walk the whole store and find nothing.  :func:`bulk_load`
brackets a bulk build: the collector is paused while the store is
built and, when the outermost build finishes, one ``gc.collect()``
clears what the build left behind and ``gc.freeze()`` moves every
survivor into the permanent generation, which later collections never
traverse.  Frozen objects are still
released by reference counting, so replacing or dropping a document
frees it — as long as the store stays acyclic.

``gc.freeze()`` is process-wide: it also freezes whatever else the
host process holds live at that moment (DESIGN, "Memory management").
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: bulk builds in progress, nested or on other threads
_depth = 0
#: ``gc.isenabled()`` as the outermost build found it
_was_enabled = False


@contextmanager
def bulk_load() -> Iterator[None]:
    """Pause the collector for a bulk build; seal the store on the way out.

    Re-entrant and thread-safe: only the outermost exit — the last of
    any overlapping builds — restores the collector to the state the
    first one found, also when the build raises.  A build that raises
    is not frozen: the propagating traceback is a cycle, and freezing
    it would keep the half-built records alive for good.
    """
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    built = False
    try:
        yield
        built = True
    finally:
        # the lock is held across collect/freeze so a build starting on
        # another thread cannot read the still-paused collector as the
        # host's own setting
        with _lock:
            _depth -= 1
            if _depth == 0:
                if built:
                    gc.collect()
                    gc.freeze()
                if _was_enabled:
                    gc.enable()
