"""Unit tests: fault injection wired into the disk and buffer pool."""

from __future__ import annotations

import pytest

from repro.config import CostModelConfig, SystemConfig
from repro.database import Database
from repro.errors import SpillSpaceError, TransientIOError
from repro.fault import (
    BufferPressureWindow,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SlowDiskWindow,
)
from repro.sim.clock import VirtualClock
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


def _disk(plan=None):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModelConfig())
    if plan is not None:
        disk.faults = FaultInjector(plan, clock)
    return disk


def _file_with_pages(disk, n=10, temp=False):
    handle = disk.allocate("f", temp=temp)
    for _ in range(n):
        disk.append_page(handle, Page(capacity=8192), charge_io=False)
    return handle


class TestRetryLoop:
    def test_transient_fault_is_retried_and_recovers(self):
        plan = FaultPlan(seed=0, transient_read_rate=1.0, max_repeat=1)
        disk = _disk(plan)
        handle = _file_with_pages(disk)

        disk.read_page(handle, 0)  # faults once, one retry succeeds

        counters = disk.faults.counters()
        assert counters["transient_io"] == 1
        assert counters["io_retries"] == 1
        assert counters["io_gave_up"] == 0

    def test_retry_charges_io_and_backoff_time(self):
        plan = FaultPlan(seed=0, transient_read_rate=1.0, max_repeat=1)
        clean = _disk()
        faulty = _disk(plan)
        h_clean = _file_with_pages(clean)
        h_faulty = _file_with_pages(faulty)

        clean.read_page(h_clean, 0)
        faulty.read_page(h_faulty, 0)

        # The faulted read pays the transfer twice plus the backoff wait.
        assert faulty.seq_reads == 2 * clean.seq_reads
        backoff = plan.retry.backoff(1)
        assert faulty.clock.now == pytest.approx(
            2 * clean.clock.now + backoff
        )

    def test_exhausted_budget_raises_the_transient_error(self):
        # 5 consecutive failures > 3 retries -> the disk gives up.
        plan = FaultPlan(
            seed=0, transient_read_rate=1.0, max_repeat=5,
            retry=RetryPolicy(max_attempts=4),
        )
        disk = _disk(plan)
        handle = _file_with_pages(disk)
        # max_repeat=5 draws failures in [1,5]; find a page that needs > 3.
        with pytest.raises(TransientIOError):
            for page_no in range(10):
                disk.read_page(handle, page_no)
        assert disk.faults.counters()["io_gave_up"] >= 1

    def test_write_faults_retry_too(self):
        plan = FaultPlan(seed=0, transient_write_rate=1.0, max_repeat=1)
        disk = _disk(plan)
        handle = disk.allocate("w")
        disk.append_page(handle, Page(capacity=8192))
        counters = disk.faults.counters()
        assert counters["transient_write"] == 1
        assert counters["io_retries"] == 1

    def test_uncharged_io_is_never_faulted(self):
        plan = FaultPlan(seed=0, transient_read_rate=1.0, max_repeat=1)
        disk = _disk(plan)
        handle = _file_with_pages(disk)
        for page_no in range(10):
            disk.read_page(handle, page_no, charge_io=False)
        assert disk.faults.counters()["io_retries"] == 0


class TestSlowDisk:
    def test_active_window_multiplies_io_cost(self):
        plan = FaultPlan(
            seed=0, slow_windows=(SlowDiskWindow(0.0, 1000.0, factor=3.0),)
        )
        slow = _disk(plan)
        clean = _disk()
        h_slow = _file_with_pages(slow)
        h_clean = _file_with_pages(clean)
        for page_no in range(5):
            slow.read_page(h_slow, page_no)
            clean.read_page(h_clean, page_no)
        assert slow.clock.now == pytest.approx(3.0 * clean.clock.now)


class TestSpillBudget:
    def test_temp_writes_count_against_budget(self):
        plan = FaultPlan(seed=0, spill_capacity_pages=2)
        disk = _disk(plan)
        temp = disk.allocate("spill", temp=True)
        disk.append_page(temp, Page(capacity=8192))
        disk.append_page(temp, Page(capacity=8192))
        with pytest.raises(SpillSpaceError):
            disk.append_page(temp, Page(capacity=8192))

    def test_permanent_writes_are_exempt(self):
        plan = FaultPlan(seed=0, spill_capacity_pages=1)
        disk = _disk(plan)
        perm = disk.allocate("perm", temp=False)
        for _ in range(5):
            disk.append_page(perm, Page(capacity=8192))
        assert disk.faults.spill_pages_written == 0


class TestBufferPressure:
    def test_pressure_window_shrinks_effective_capacity(self):
        clock = VirtualClock()
        disk = SimulatedDisk(clock, CostModelConfig())
        pool = BufferPool(disk, capacity_pages=10, cost=CostModelConfig())
        plan = FaultPlan(
            seed=0,
            pressure_windows=(
                BufferPressureWindow(0.0, 1000.0, reserved_frames=6),
            ),
        )
        pool.faults = FaultInjector(plan, clock)
        handle = _file_with_pages(disk)
        for page_no in range(10):
            pool.get_page(handle, page_no)
        assert pool.effective_capacity() == 4
        assert pool.num_cached <= 4

    def test_capacity_never_drops_below_one(self):
        clock = VirtualClock()
        disk = SimulatedDisk(clock, CostModelConfig())
        pool = BufferPool(disk, capacity_pages=4, cost=CostModelConfig())
        plan = FaultPlan(
            seed=0,
            pressure_windows=(
                BufferPressureWindow(0.0, 1000.0, reserved_frames=99),
            ),
        )
        pool.faults = FaultInjector(plan, clock)
        handle = _file_with_pages(disk)
        for page_no in range(4):
            pool.get_page(handle, page_no)
        assert pool.effective_capacity() == 1
        assert pool.num_cached == 1


class TestDatabaseFacade:
    def test_install_and_clear(self):
        db = Database(config=SystemConfig())
        injector = db.install_faults(FaultPlan(seed=1))
        assert db.faults is injector
        assert db.disk.faults is injector
        assert db.buffer_pool.faults is injector
        db.clear_faults()
        assert db.faults is None
        assert db.buffer_pool.faults is None

    def test_query_results_identical_under_transient_faults(self, small_db):
        sql = "select * from t1 where b < 5"
        baseline = small_db.connect().submit(sql, trace=False).result().rows
        small_db.install_faults(
            FaultPlan(seed=11, transient_read_rate=0.2, max_repeat=1)
        )
        try:
            faulted = small_db.connect().submit(sql, trace=False).result().rows
        finally:
            small_db.clear_faults()
        assert faulted == baseline
