"""Unit tests for pages, heap files, the simulated disk and buffer pool."""

import pytest

from repro.config import CostModelConfig
from repro.errors import StorageError
from repro.sim.clock import VirtualClock
from repro.sim.load import IO
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string


@pytest.fixture
def disk():
    return SimulatedDisk(VirtualClock(), CostModelConfig())


@pytest.fixture
def schema():
    return Schema([Column("k", INTEGER), Column("s", string(50))])


class TestPage:
    """The fit rule, through the heap file's page writer (the only one)."""

    @staticmethod
    def heap(disk, page_size):
        return HeapFile("t", Schema([Column("k", INTEGER)]), disk, page_size)

    def test_empty_page_accepts_oversized_row(self, disk):
        heap = self.heap(disk, 100)
        heap.append((1,), 500)  # a page never stays empty
        assert heap.page.rows == [(1,)]
        heap.flush()
        assert [p.bytes_used for p in heap.iter_pages()] == [500]

    def test_append_and_len(self, disk):
        heap = self.heap(disk, 1000)
        heap.append((1, "a"), 30)
        heap.append((2, "b"), 30)
        assert len(heap.page) == 2
        assert heap.page.bytes_used == 60

    def test_fits_respects_budget(self, disk):
        heap = self.heap(disk, 100)
        heap.append((1,), 60)
        heap.append((2,), 40)  # 100: exactly full still fits
        assert len(heap.page) == 2
        heap = self.heap(disk, 100)
        heap.append((1,), 60)
        heap.append((2,), 41)
        assert heap.page.rows == [(2,)]
        assert heap.num_pages == 1

    def test_overflow_rolls_the_page(self, disk):
        heap = self.heap(disk, 100)
        heap.append((1,), 80)
        heap.append((2,), 30)
        heap.flush()
        assert [(p.rows, p.bytes_used) for p in heap.iter_pages()] == [
            ([(1,)], 80),
            ([(2,)], 30),
        ]

    def test_rows_stored_as_tuples(self, disk):
        heap = self.heap(disk, 100)
        heap.append([1, "x"], 10)
        assert heap.page.rows[0] == (1, "x")
        assert isinstance(heap.page.rows[0], tuple)


class TestHeapFile:
    def test_bulk_load_counts(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        heap.bulk_load([(i, f"val{i}") for i in range(100)])
        assert heap.num_tuples == 100
        assert heap.num_pages > 1
        assert heap.total_bytes > 0

    def test_bulk_load_charges_no_io(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        heap.bulk_load([(i, "x") for i in range(100)])
        assert disk.clock.now == 0.0
        assert disk.writes == 0

    def test_temp_append_charges_io(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=256, temp=True)
        for i in range(50):
            heap.append((i, "payload"))
        heap.flush()
        assert disk.writes == heap.num_pages
        assert disk.clock.now > 0.0

    def test_iter_rows_roundtrip(self, disk, schema):
        rows = [(i, f"s{i}") for i in range(37)]
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load(rows)
        assert list(heap.iter_rows()) == rows

    def test_avg_tuple_width(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        heap.bulk_load([(1, "ab")])
        assert heap.avg_tuple_width() == schema.row_width((1, "ab"))

    def test_avg_tuple_width_empty(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        assert heap.avg_tuple_width() == 0.0

    def test_flush_idempotent_on_empty(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        heap.flush()
        assert heap.num_pages == 0

    def test_drop_releases_file(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=512)
        heap.bulk_load([(1, "a")])
        fid = heap.handle.file_id
        heap.drop()
        with pytest.raises(StorageError):
            disk.file(fid)


def write_timeline(disk):
    """Record ``clock.now`` after every page write ``disk`` makes."""
    times = []
    append_page = disk.append_page

    def recorded(*args, **kwargs):
        page_no = append_page(*args, **kwargs)
        times.append(disk.clock.now)
        return page_no

    disk.append_page = recorded
    return times


#: (rows, page size) of the writer cases; the schema is ``(k int, s string)``.
WRITER_CASES = {
    "empty": ([], 64),
    # 29-byte rows (24 header + 4 + 1 + 0): five fill a page exactly
    "exact-fit": ([(i, "") for i in range(15)], 145),
    "wider-than-a-page": (
        [(1, "a"), (2, "w" * 200), (3, "b"), (4, "v" * 90), (5, "w" * 300)],
        64,
    ),
    "null-strings": (
        [(i, None if i % 3 == 0 else "s" * (i % 17)) for i in range(80)],
        96,
    ),
}


class TestPageWriter:
    """``HeapFile.write`` (a page at a time) against ``append`` (per row)."""

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    @pytest.mark.parametrize("split", [None, 3])
    def test_write_equals_per_row_append(self, schema, case, split):
        rows, page_size = WRITER_CASES[case]
        widths = [schema.row_width(row) for row in rows]
        if case == "exact-fit":
            assert sum(widths[:5]) == page_size
        files = []
        for by_page in (False, True):
            disk = SimulatedDisk(VirtualClock(), CostModelConfig())
            times = write_timeline(disk)
            heap = HeapFile("t", schema, disk, page_size, temp=True)
            if not by_page:
                for row in rows:
                    heap.append(row)
            elif split is None:
                heap.write(rows, widths)
            else:  # the open page carries over from one call to the next
                heap.write(rows[:split], widths[:split])
                heap.write(rows[split:], widths[split:])
            heap.flush()
            files.append((
                [(p.rows, p.bytes_used) for p in heap.iter_pages()],
                heap.num_tuples,
                heap.total_bytes,
                disk.writes,
                times,
            ))
        assert files[0] == files[1]
        pages, num_tuples, total_bytes, writes, times = files[1]
        assert num_tuples == len(rows) and total_bytes == sum(widths)
        assert writes == len(pages) == len(times)
        assert all(isinstance(r, tuple) for page, _ in pages for r in page)

    def test_counters_settle_when_a_page_closes(self, disk, schema):
        heap = HeapFile("t", schema, disk, 64, temp=True)
        heap.write([(1, "a" * 30), (2, "b" * 30)], [44, 44])
        assert (heap.num_tuples, heap.total_bytes) == (1, 44)
        heap.flush()
        assert (heap.num_tuples, heap.total_bytes, heap.num_pages) == (2, 88, 2)
        heap.flush()  # nothing open: no empty page is written
        assert heap.num_pages == 2

    @pytest.mark.parametrize("engine", ["batch", "row"])
    def test_spill_capacity_fault_mid_partition_leaks_nothing(self, engine):
        from repro.config import SystemConfig
        from repro.database import Database
        from repro.errors import SpillSpaceError
        from repro.fault.plan import FaultPlan

        config = SystemConfig(work_mem_pages=1).with_progress(engine=engine)
        db = Database(config=config)
        pad = Schema([Column("k", INTEGER), Column("pad", string(120))])
        db.create_table("big", pad, [(i % 50, "p" * 100) for i in range(600)])
        db.create_table("small", pad, [(i % 50, "q" * 100) for i in range(400)])
        db.analyze()
        sql = "select b.k, s.pad from big b, small s where b.k = s.k"
        assert "batches)" in db.explain(sql)
        db.connect().execute(sql)
        writes = db.disk.writes
        assert writes > 4
        db.install_faults(FaultPlan(seed=0, spill_capacity_pages=writes // 4))
        try:
            handle = db.connect().submit(sql, name="q")
            with pytest.raises(SpillSpaceError):
                handle.result()
        finally:
            db.clear_faults()
        assert handle.state == "failed"
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0


class TestSimulatedDisk:
    def test_sequential_read_cheaper_than_random(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load([(i, "x" * 20) for i in range(200)])
        t0 = disk.clock.now
        disk.read_page(heap.handle, 0, sequential=True)
        seq_time = disk.clock.now - t0
        t0 = disk.clock.now
        disk.read_page(heap.handle, 1, sequential=False)
        random_time = disk.clock.now - t0
        assert random_time > seq_time

    def test_read_out_of_range_raises(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load([(1, "a")])
        with pytest.raises(StorageError):
            disk.read_page(heap.handle, 99)

    def test_io_counters(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load([(i, "x") for i in range(100)])
        disk.read_page(heap.handle, 0, sequential=True)
        disk.read_page(heap.handle, 1, sequential=False)
        counters = disk.io_counters()
        assert counters["seq_reads"] == 1
        assert counters["random_reads"] == 1

    def test_charge_io_false_is_free(self, disk, schema):
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load([(1, "a")])
        disk.read_page(heap.handle, 0, charge_io=False)
        assert disk.clock.now == 0.0


class TestBufferPool:
    def _loaded(self, disk, schema, pages=10):
        heap = HeapFile("t", schema, disk, page_size=256)
        heap.bulk_load([(i, "x" * 30) for i in range(pages * 5)])
        return heap

    def test_miss_then_hit(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 4, CostModelConfig())
        pool.get_page(heap.handle, 0)
        assert pool.misses == 1
        pool.get_page(heap.handle, 0)
        assert pool.hits == 1

    def test_hit_is_cheaper_than_miss(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 4, CostModelConfig())
        t0 = disk.clock.now
        pool.get_page(heap.handle, 0)
        miss_time = disk.clock.now - t0
        t0 = disk.clock.now
        pool.get_page(heap.handle, 0)
        hit_time = disk.clock.now - t0
        assert hit_time < miss_time

    def test_lru_eviction(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 2, CostModelConfig())
        pool.get_page(heap.handle, 0)
        pool.get_page(heap.handle, 1)
        pool.get_page(heap.handle, 2)  # evicts page 0
        assert pool.num_cached == 2
        pool.get_page(heap.handle, 0)
        assert pool.misses == 4

    def test_lru_touch_reorders(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 2, CostModelConfig())
        pool.get_page(heap.handle, 0)
        pool.get_page(heap.handle, 1)
        pool.get_page(heap.handle, 0)  # page 0 is now most recent
        pool.get_page(heap.handle, 2)  # evicts page 1
        pool.get_page(heap.handle, 0)
        assert pool.hits == 2

    def test_clear_cold_starts(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 4, CostModelConfig())
        pool.get_page(heap.handle, 0)
        pool.clear()
        pool.get_page(heap.handle, 0)
        assert pool.misses == 2

    def test_invalidate_file(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 4, CostModelConfig())
        pool.get_page(heap.handle, 0)
        pool.invalidate_file(heap.handle)
        assert pool.num_cached == 0

    def test_hit_rate(self, disk, schema):
        heap = self._loaded(disk, schema)
        pool = BufferPool(disk, 4, CostModelConfig())
        assert pool.hit_rate() == 0.0
        pool.get_page(heap.handle, 0)
        pool.get_page(heap.handle, 0)
        assert pool.hit_rate() == pytest.approx(0.5)

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(ValueError):
            BufferPool(disk, 0, CostModelConfig())
