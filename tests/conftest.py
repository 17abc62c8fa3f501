import multiprocessing
import threading

import pytest

DISPATCH_THREAD = "gridstore-dispatch"


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
    threads = dispatch_threads()  # no grace join: a sweep joins its threads before it returns
    if threads:
        pytest.fail(f"test left {len(threads)} live dispatch thread(s): {threads}")
