import pytest

from ecsmooth import census


@pytest.fixture(scope="session")
def order_cache(tmp_path_factory):
    """Shared on-disk order cache so the heavy prime sweeps run once."""
    root = tmp_path_factory.mktemp("orders")
    return census.OrderCache(root, workers=4)
