import multiprocessing
import threading
import time

import pytest

DISPATCH_THREAD = "gridstore-dispatch"
_JOIN_S = 5.0  # long enough for a dropped solve of a test-sized LP to finish


def dispatch_threads() -> list[threading.Thread]:
    """The live threads of gridstore's dispatch pools."""
    return [t for t in threading.enumerate() if t.name.startswith(DISPATCH_THREAD)]


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Fail any test that leaves a child process, or a dispatch thread, alive behind it."""
    yield
    alive = multiprocessing.active_children()
    if alive:
        pytest.fail(f"test left {len(alive)} live child process(es): {alive}")
    deadline = time.monotonic() + _JOIN_S
    for thread in dispatch_threads():
        thread.join(max(0.0, deadline - time.monotonic()))
    threads = [t for t in dispatch_threads() if t.is_alive()]
    if threads:
        pytest.fail(f"test left {len(threads)} live dispatch thread(s): {threads}")
