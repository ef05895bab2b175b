import json
import math
import tracemalloc

import pytest

from ecsmooth import census
from ecsmooth.errors import DomainError


def traced_peak(fn):
    """fn() under tracemalloc: its result and the peak of the bytes traced
    while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def series_rows(path):
    """The (x, value) rows of a series JSON file the CLI wrote, which must
    carry the friability convention marker."""
    obj = json.loads(path.read_text())
    assert obj["convention"] == census.CONVENTION, obj["convention"]
    return [tuple(row) for row in obj["rows"]]


def rho_debruijn(u):
    """de Bruijn's asymptotic main term exp(-u (log u + log log(u+2) - 1))
    for rho(u), the reference of criterion 6 and test_dickman."""
    if not u >= 1:
        raise DomainError(f"de Bruijn main term needs u >= 1, got {u}")
    return math.exp(-u * (math.log(u) + math.log(math.log(u + 2)) - 1.0))


@pytest.fixture(scope="session")
def order_cache(tmp_path_factory):
    """Shared on-disk order cache so the heavy prime sweeps run once."""
    root = tmp_path_factory.mktemp("orders")
    return census.OrderCache(root, workers=4)
