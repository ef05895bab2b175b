import functools
import hashlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import dickman
from ecsmooth.errors import CapacityError, DomainError

from conftest import rho_debruijn

# High-precision reference values for rho (frozen literature constants).
RHO_REFERENCE = {
    2.0: 0.30685281944005469,
    3.0: 0.048608388294652280,
    4.0: 0.0049109256775463328,
    5.0: 0.00035472470045487723,
    10.0: 2.7701718381738851e-11,
}

# sha256 of RhoTable().values.tobytes(), recorded before the table was built
# on demand: the grid must not change with how it is built.
RHO_GRID_SHA256 = "8adb2b20bf378071c17b3d01cad60f9171e0add5bc15569c1ad1cf44b786c05a"
# sha256 of RhoTable(step=1/2048, max_u=20).values.tobytes(), recorded before
# the table kept only the nodes, panels and derivative its recurrence reads
RHO_FINE_GRID_SHA256 = "583476c505040a68a64c074b08010b74ff3e7e4d0a38c48dfa5058d2eba4d97a"


def grid_sha256(table):
    return hashlib.sha256(table.values.tobytes()).hexdigest()


@functools.cache
def built_in_one_go():
    table = dickman.RhoTable()
    table.values  # the complete grid, before any point is asked
    return table


class TestRho:
    def test_one_below_one(self):
        for u in (0.0, 0.3, 0.7, 1.0):
            assert dickman.rho(u) == 1.0

    def test_closed_form_on_1_2(self):
        # rho(u) = 1 - log u on [1, 2]
        for u in (1.1, 1.5, 1.9, 2.0):
            assert dickman.rho(u) == pytest.approx(1.0 - math.log(u), abs=1e-9)

    def test_reference_values(self):
        for u, ref in RHO_REFERENCE.items():
            assert dickman.rho(u) == pytest.approx(ref, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            dickman.rho(-0.1)
        with pytest.raises(DomainError):
            dickman.rho(51.0)

    def test_monotone_grid(self):
        t = dickman.default_table()
        vals = t.values
        assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))

    def test_step_halving_convergence(self):
        fine = dickman.RhoTable(step=1.0 / 2048)
        for k in range(1, 81):
            u = k * 0.25
            assert abs(dickman.rho(u) - fine.rho(u)) <= 1e-9, u

    @given(st.floats(0.0, 20.0))
    @settings(max_examples=100)
    def test_positive_and_bounded(self, u):
        r = dickman.rho(u)
        assert 0.0 < r <= 1.0

    def test_clipped_underflow(self):
        v, flag = dickman.rho_clipped(60.0)
        assert v == 0.0 and flag
        v, flag = dickman.rho_clipped(2.0)
        assert not flag and v == pytest.approx(1 - math.log(2), abs=1e-9)

    def test_grid_pin(self):
        assert grid_sha256(dickman.RhoTable()) == RHO_GRID_SHA256

    def test_fine_grid_pin(self):
        assert grid_sha256(dickman.RhoTable(step=1.0 / 2048, max_u=20.0)) == RHO_FINE_GRID_SHA256

    def test_small_u_allocates_no_grid(self):
        # rho(1.75) needs the nodes to u = 2, not a grid to max_u = 50 (1.2 MB)
        tracemalloc.start()
        try:
            dickman.RhoTable().rho(1.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_values_is_a_copy(self):
        table = dickman.RhoTable()
        before, grid = table.rho(2.5), table.values
        grid[:] = 0.0
        assert table.rho(2.5) == before
        assert grid_sha256(table) == RHO_GRID_SHA256

    def test_grid_after_scattered_queries(self):
        table = dickman.RhoTable()
        for u in (1.5, 17.3, 2.0, 3.0, 33.0, 0.5):
            table.rho(u)
        assert grid_sha256(table) == RHO_GRID_SHA256

    @given(st.lists(st.one_of(st.floats(0.0, 12.0), st.sampled_from([1.0, 2.0, 7.0, 12.0])), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_any_query_order(self, us):
        fresh = dickman.RhoTable()
        assert [fresh.rho(u) for u in us] == [built_in_one_go().rho(u) for u in us]

    def test_last_node(self):
        # u = max_u interpolates on the last four nodes instead of running off the grid
        last = dickman.default_table().values[-1]
        assert dickman.rho(dickman.DEFAULT_MAX_U) == last
        assert dickman.rho_clipped(50.0) == (last, False)


@pytest.mark.parametrize(
    "fn",
    [
        dickman.rho,
        dickman.rho_clipped,
        dickman.xi,
        rho_debruijn,  # the reference of TestDeBruijn and criterion 6
        # infinity fails the same checks as NaN
        pytest.param(lambda nan: dickman.xi(math.inf), id="xi_inf"),
    ],
)
def test_nan_is_a_domain_error(fn):
    with pytest.raises(DomainError):
        fn(math.nan)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": math.nan},
        {"step": -1.0 / 16},
        {"step": math.inf},
        {"step": 1.0 / 7},
        {"step": 1.0 / 1000.5},
        {"max_u": math.nan},
        {"max_u": -1.0},
        {"max_u": math.inf},
        {"max_u": 0.5},
        {"max_u": dickman.DEFAULT_MAX_U + 1},
    ],
    ids=repr,
)
def test_bad_table_arguments(kwargs):
    with pytest.raises(DomainError):
        dickman.RhoTable(**kwargs)


def test_step_guard():
    dickman.RhoTable(step=1.0 / dickman.MAX_PER_UNIT, max_u=1.0)
    with pytest.raises(CapacityError):
        dickman.RhoTable(step=1.0 / (dickman.MAX_PER_UNIT + 1))
    with pytest.raises(CapacityError):
        dickman.RhoTable(step=5e-324)  # 1/step overflows to inf


class TestDeBruijn:
    def test_ratio_band(self):
        for k in range(10, 41):
            u = float(k)
            ratio = math.log(dickman.rho(u)) / math.log(rho_debruijn(u))
            assert 0.8 <= ratio <= 1.2, (u, ratio)

    def test_u1_formula(self):
        assert rho_debruijn(1.0) == pytest.approx(
            math.exp(-(math.log(math.log(3.0)) - 1.0))
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            rho_debruijn(0.5)


class TestXi:
    def test_residual(self):
        for u in (2.0, 10.0, 100.0):
            x = dickman.xi(u)
            assert abs(math.exp(x) - 1.0 - u * x) <= 1e-12 * (1.0 + u * x)
            assert x > 0

    def test_asymptotic(self):
        u = 1e4
        assert dickman.xi(u) / math.log(u * math.log(u)) == pytest.approx(1.0, abs=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            dickman.xi(1.0)

