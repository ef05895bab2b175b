import tracemalloc

import pytest

from ecsmooth import census


def traced_peak(fn):
    """fn() under tracemalloc: its result and the peak of the bytes traced
    while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def order_cache(tmp_path_factory):
    """Shared on-disk order cache so the heavy prime sweeps run once."""
    root = tmp_path_factory.mktemp("orders")
    return census.OrderCache(root, workers=4)
