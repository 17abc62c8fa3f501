import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_orphaned_workers():
    """Fail any test that leaves a worker process alive behind it."""
    yield
    alive = multiprocessing.active_children()
    if alive:
        pytest.fail(f"test left {len(alive)} live child process(es): {alive}")
