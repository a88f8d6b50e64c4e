"""Every kernel entry under failing allocations: each call either raises
MemoryError or returns what a clean call returns, and no failure leaks.

``_testcapi.set_nomemory(k, 0)`` lets the first k allocations of the
interpreter succeed and fails every later one, so sweeping k from 0 walks
each allocation of a call and the exit it takes when that allocation
fails: each chunk that ``take`` in ``_search.c`` allocates, raising the
MemoryError itself, with the ``release`` on that exit, and the failures of
the objects a call builds. A small call carves all its buffers from one
chunk, so it fails at a few indices and returns its result at the rest.
The sweep also fails the k-th allocation alone
(``set_nomemory(k, k + 1)``), where an error return that sets no exception
shows as SystemError; failing every later allocation too turns it into
MemoryError. The index at which a call first succeeds is not pinned: a
sanitizer build, or the state of the interpreter's free lists, moves it.
Under UBSan, as in CI, a buffer carved at a misaligned place ends the run.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from intervalcolor import Graph, _reference
from intervalcolor.doubling import _provenance_table
from intervalcolor.graph import _PAIRS
from intervalcolor.solver import DISTANCE_MAX_M, _native
from smallgraphs import c4

_testcapi = pytest.importorskip("_testcapi")
if not hasattr(_testcapi, "set_nomemory"):
    pytest.skip("needs _testcapi.set_nomemory", allow_module_level=True)

INDICES = range(60)


@pytest.fixture(scope="module")
def calls_and_references():
    """Each kernel entry with its arguments, by name, and its clean result."""
    kernel = _native()
    if kernel is _reference:
        pytest.skip("needs the compiled kernel")
    # The Petersen graph: 15 edges, so the search takes the distance rule.
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    n, edges = petersen.n, petersen.edges
    square = c4()
    alpha = (1, 2, 2, 3)  # an interval 3-coloring of C4's edges
    table = _provenance_table(4)
    # The Petersen graph's harvest finds automorphisms, so these reach
    # every buffer of the plan, the harvest's and the floors' included, and
    # the tuples that automorphisms builds.
    calls = {
        "search with dist": lambda: kernel.search(n, edges, DISTANCE_MAX_M, 6, 3, 0),
        "search without dist": lambda: kernel.search(n, edges, 0, 6, 3, 0),
        "automorphisms": lambda: kernel.automorphisms(n, edges, DISTANCE_MAX_M),
        "interval_ok": lambda: kernel.interval_ok(square.n, square.edges, alpha, 3),
        "double": lambda: kernel.double(square.n, square.edges, alpha, 3, _PAIRS, table),
        "in_palette": lambda: kernel.in_palette(3, alpha),
        "index_graph": lambda: kernel.index_graph(70, [(66, 65), (0, 1), (1, 65), (0, 1)], _PAIRS),
        "classify": lambda: kernel.classify(n, edges),
        "classify edgeless": lambda: kernel.classify(3, ()),
        "extend": lambda: kernel.extend(4, [(0b110, 0b101, 0b011), (0b010, 0b101, 0b010)]),
    }
    references = {name: call() for name, call in calls.items()}
    assert references["automorphisms"]
    return calls, references


def failing_at(call, k, stop):
    """call's result with allocations k up to stop failing (0: all from k
    on), or MemoryError. The collector is off meanwhile, so that no
    collection runs other objects' finalizers while allocations fail."""
    collecting = gc.isenabled()
    gc.disable()
    _testcapi.set_nomemory(k, stop)
    try:
        return call()
    except MemoryError:
        return MemoryError
    finally:
        _testcapi.remove_mem_hooks()
        if collecting:
            gc.enable()


def sweep(calls, references):
    """Checks every call at every index; returns how many raised MemoryError."""
    failures = 0
    for name, call in calls.items():
        for k in INDICES:
            for stop in (0, k + 1):
                outcome = failing_at(call, k, stop)
                assert outcome is MemoryError or outcome == references[name], (name, k, stop)
                failures += outcome is MemoryError
        # The sweep reaches past the call's last allocation.
        assert outcome == references[name], name
    return failures


def test_each_call_fails_cleanly_or_returns_its_result(calls_and_references):
    assert sweep(*calls_and_references)


def test_failed_calls_leave_nothing_allocated(calls_and_references):
    sweep(*calls_and_references)  # first-use caches fill before the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            sweep(*calls_and_references)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after <= before, f"{after - before} bytes more after five sweeps"
