"""The ownership registry of shared mutable engine objects.

A *shared object* is one that several in-flight queries (or the scheduler
and a query) observe concurrently in virtual time: the buffer pool, the
simulated disk, the virtual clock, a trace bus, the catalog, the
scheduler's task table, each query's work tracker.  Each entry names

* the owning class — the only code allowed to store to the object's
  registered attributes (everyone else must go through the owner's
  mediating API: ``set_owner``, ``set_trace``, ``set_faults``, ...);
* its **receiver aliases** — the local/attribute names the codebase
  conventionally binds instances to (``ctx.buffer_pool``, ``disk``,
  ``self._clock``), which is how a purely syntactic analysis recognises
  a receiver as shared without type inference;
* the **registered attributes** whose raw mutation from outside the
  owner is an atomicity hazard (REPRO100) and whose store inside a
  generator method of the owner is one too (REPRO102).

The alias convention is enforced socially, not mechanically: binding a
``BufferPool`` to a name like ``x`` hides it from this analysis.  What
catches the static story drifting from runtime behaviour is the tier-1
engine-equivalence and interleaving tests, not another static pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SharedObject:
    """One shared mutable engine object and its ownership contract."""

    #: Dotted path of the owner class ("repro.sim.clock.VirtualClock").
    cls: str
    #: Receiver names an instance is conventionally bound to.
    aliases: frozenset[str]
    #: Instance attributes whose unmediated external mutation is flagged.
    attrs: frozenset[str]
    description: str

    @property
    def class_name(self) -> str:
        return self.cls.rsplit(".", 1)[1]

    @property
    def module(self) -> str:
        return self.cls.rsplit(".", 1)[0]


SHARED_STATE_REGISTRY: tuple[SharedObject, ...] = (
    SharedObject(
        cls="repro.sim.clock.VirtualClock",
        aliases=frozenset({"clock", "_clock"}),
        attrs=frozenset({
            "now", "cost_charged", "_tickers", "_ticker_seq", "_firing",
            "_load", "_factors", "_next_change", "_next_event",
        }),
        description="the virtual clock every query charges time against",
    ),
    SharedObject(
        cls="repro.storage.disk.SimulatedDisk",
        aliases=frozenset({"disk", "_disk"}),
        attrs=frozenset({
            "trace", "faults", "seq_reads", "random_reads", "writes",
            "_owner", "_owner_counters", "_files", "_ids",
        }),
        description="the simulated disk shared by all files and queries",
    ),
    SharedObject(
        cls="repro.storage.buffer.BufferPool",
        aliases=frozenset({"pool", "buffer_pool", "_pool", "_buffer_pool"}),
        attrs=frozenset({
            "trace", "faults", "hits", "misses", "_frames", "_pins",
        }),
        description="the LRU buffer pool in-flight queries contend for",
    ),
    SharedObject(
        cls="repro.obs.bus.TraceBus",
        aliases=frozenset({"trace", "bus", "trace_bus", "_trace", "_bus"}),
        attrs=frozenset({"events", "_subscribers", "_last_t", "_counts"}),
        description="a trace bus with monotonic-timestamp state",
    ),
    SharedObject(
        cls="repro.catalog.catalog.Catalog",
        aliases=frozenset({"catalog", "_catalog"}),
        attrs=frozenset({"_tables"}),
        description="the table catalog (DDL mutates it mid-workload)",
    ),
    SharedObject(
        cls="repro.sched.scheduler.CooperativeScheduler",
        aliases=frozenset({"scheduler", "sched", "_scheduler"}),
        attrs=frozenset({"tasks", "slices", "_seq"}),
        description="the cooperative scheduler's task table and slice log",
    ),
    SharedObject(
        cls="repro.executor.work.WorkTracker",
        aliases=frozenset({"tracker", "_tracker"}),
        attrs=frozenset({"sync", "total_done_bytes"}),
        description="a query's work tracker: only it or its program stores sync, total",
    ),
)


def owner_for_store(receiver_tail: str, attr: str) -> "SharedObject | None":
    """The registry entry a store ``<...>.<receiver_tail>.<attr> = v``
    touches, if any."""
    for obj in SHARED_STATE_REGISTRY:
        if receiver_tail in obj.aliases and attr in obj.attrs:
            return obj
    return None
