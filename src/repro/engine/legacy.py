"""The reference interpreter: one Python-level step per trace reference.

This is the original ``Machine.run`` loop, moved verbatim into the engine
subsystem.  It is the *semantic definition* of the simulator: the kernel
engine (:mod:`repro.engine.kernel`) must reproduce its statistics and
execution times bit for bit, and the equivalence regression suite asserts
exactly that for every system the factory can build.

Timing model (DESIGN.md, "Timing model")
----------------------------------------
Each processor owns a clock.  Within a phase the processors' reference
streams are interleaved round-robin; every reference costs its compute
time plus:

* an L1 hit time for processor-cache hits,
* the bus queueing delay plus the protocol-determined service latency for
  misses (local miss, block-cache hit, page-cache hit or remote round
  trip, per Table 3 of the paper),
* any page-operation and mapping-fault cycles the access triggered.

Phases end in barriers that synchronise every processor at the maximum
clock plus a barrier cost; the run's execution time is the final
synchronised clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mem.cache import (
    PROBE_READ_HIT,
    PROBE_WRITE_HIT_OWNED,
    PROBE_WRITE_HIT_SHARED,
)
from repro.stats.counters import MachineStats
from repro.stats.timing import StallKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine


def run_legacy(machine: "Machine", trace) -> MachineStats:
    """Run ``trace`` on ``machine`` with the reference interpreter."""
    costs = machine.cfg.costs
    protocol = machine.protocol
    addr_bpp = machine.addr.blocks_per_page
    dir_version = machine.directory.version
    node_stats = machine.stats.nodes
    procs = machine.processors
    num_trace_procs = trace.num_procs

    l1_hit_cost = costs.l1_hit
    bus_occ = costs.bus_occupancy

    # local (fast) copies of per-processor clocks
    clocks = [machine.timing.processors[p].clock for p in range(num_trace_procs)]

    for phase in trace.phases:
        blocks_by_proc = [seq.tolist() if hasattr(seq, "tolist") else list(seq)
                          for seq in phase.blocks]
        writes_by_proc = [seq.tolist() if hasattr(seq, "tolist") else list(seq)
                          for seq in phase.writes]
        lengths = [len(seq) for seq in blocks_by_proc]
        if len(lengths) != num_trace_procs:
            raise ValueError("phase stream count does not match trace.num_procs")
        max_len = max(lengths, default=0)
        compute = phase.compute_per_access

        # per-proc stall accumulators for this phase
        acc_compute = [0] * num_trace_procs
        acc_hit = [0] * num_trace_procs
        acc_local = [0] * num_trace_procs
        acc_remote = [0] * num_trace_procs
        acc_upgrade = [0] * num_trace_procs
        acc_pageop = [0] * num_trace_procs
        acc_fault = [0] * num_trace_procs
        acc_contention = [0] * num_trace_procs
        acc_accesses = [0] * num_trace_procs
        acc_l1_hits = [0] * num_trace_procs
        acc_upgrade_count = [0] * num_trace_procs

        for i in range(max_len):
            for p in range(num_trace_procs):
                if i >= lengths[p]:
                    continue
                block = blocks_by_proc[p][i]
                is_write = bool(writes_by_proc[p][i])
                proc = procs[p]
                node = proc.node_id
                cache = proc.cache

                clock = clocks[p] + compute
                acc_compute[p] += compute
                acc_accesses[p] += 1

                version = dir_version(block)
                code = cache.probe(block, version, is_write)

                if code == PROBE_READ_HIT or code == PROBE_WRITE_HIT_OWNED:
                    clock += l1_hit_cost
                    acc_hit[p] += l1_hit_cost
                    acc_l1_hits[p] += 1
                    clocks[p] = clock
                    continue

                page = block // addr_bpp

                if code == PROBE_WRITE_HIT_SHARED:
                    # write upgrade: invalidate other sharers
                    bus = machine.nodes[node].bus
                    start = bus.acquire(clock, bus_occ)
                    wait = start - clock
                    latency, new_version = protocol.handle_upgrade(
                        node, p, page, block, start)
                    cache.touch_write(block, new_version)
                    acc_contention[p] += wait
                    acc_upgrade[p] += latency
                    acc_upgrade_count[p] += 1
                    clocks[p] = clock + wait + latency
                    continue

                # L1 miss
                bus = machine.nodes[node].bus
                start = bus.acquire(clock, bus_occ)
                wait = start - clock
                service, pageop, fault, version, remote = protocol.handle_miss(
                    node, p, page, block, is_write, start)
                victim = cache.fill(block, version, dirty=is_write)
                if victim is not None:
                    protocol.note_l1_eviction(node, victim[0], victim[1])

                acc_contention[p] += wait
                if remote:
                    acc_remote[p] += service
                else:
                    acc_local[p] += service
                acc_pageop[p] += pageop
                acc_fault[p] += fault
                clocks[p] = clock + wait + service + pageop + fault

        # flush per-phase accumulators into the timing/statistics objects
        for p in range(num_trace_procs):
            pt = machine.timing.processors[p]
            pt.advance(StallKind.COMPUTE, acc_compute[p])
            pt.advance(StallKind.L1_HIT, acc_hit[p])
            pt.advance(StallKind.LOCAL_MISS, acc_local[p])
            pt.advance(StallKind.REMOTE_MISS, acc_remote[p])
            pt.advance(StallKind.UPGRADE, acc_upgrade[p])
            pt.advance(StallKind.PAGE_OP, acc_pageop[p])
            pt.advance(StallKind.MAPPING_FAULT, acc_fault[p])
            pt.advance(StallKind.CONTENTION, acc_contention[p])
            ns = node_stats[procs[p].node_id]
            ns.accesses += acc_accesses[p]
            ns.l1_hits += acc_l1_hits[p]

        # barrier at the end of the phase
        post_barrier = machine.timing.barrier(costs.barrier_cost)
        clocks = [post_barrier] * num_trace_procs
        machine.stats.barrier_count += 1

    # final bookkeeping
    machine.stats.execution_time = machine.timing.max_clock()
    machine.stats.proc_finish_times = [
        machine.timing.processors[p].clock for p in range(num_trace_procs)
    ]
    machine.stats.network_messages = machine.network.total_messages()
    machine.stats.network_bytes = machine.network.total_bytes()
    machine.stats.message_stats = machine.network.stats
    machine.stats.stall_breakdown = dict(machine.timing.aggregate_stalls())
    return machine.stats
