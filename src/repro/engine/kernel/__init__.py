"""The compiled residual kernel — ``engine=kernel``, the default engine.

Per phase the driver classifies the references
(:mod:`repro.engine.classify`): guaranteed L1 hits are resolved in bulk
by closed-form arithmetic, and only the *residual* references (possible
hits, upgrades, misses) are walked, in exactly the reference
interpreter's round-robin order.  The driver marshals the simulator's
stores into zero-copy numpy views (:mod:`repro.engine.kernel.state`)
and binds ``cwalk.c`` — plain C99 built on demand by any system
compiler and called through ctypes (:mod:`repro.engine.kernel.cbuild`)
— to them once per run; a phase re-points only the walk's per-phase
pointer table, and only a phase that grows the stores re-takes the
views and binds again.

The walk runs the probe/upgrade/local-fill/block-cache lanes — plus the
page-cache probe lane for S-COMA-family systems, the home-side MigRep
counter bumps with the static-threshold decision tests, and the
requester-side R-NUMA refetch counters with the static relocation test —
entirely in compiled code, and *bails* back to this driver for the
events that need real protocol machinery: mapping faults, writes to
replicated pages, fired migration/replication/relocation decisions,
S-COMA first-touch allocations (``pagecache``), and adaptive-policy
evaluation points (``decide``).  The driver services the bail with
ordinary protocol calls, folds the delta mirrors, processes any
L1-shootdown demotions, and re-enters the walk where it left off.
Bails are rare (hundreds per million references on the paper's
workloads; decision evaluations are orders of magnitude rarer than
references), so the walk's speed dominates.

Only systems whose whole residual walk the C code can express run on
the kernel: the exact stock protocol family (``perfect``, ``ccnuma``,
``migrep``, ``rnuma``, ``scoma``, ``rnuma-migrep``, ``ccnuma-dram`` and
their capacity variants) with homogeneous block caches and stock base
machinery.  ``perfect``'s infinite block cache is identity-mapped
(:mod:`repro.mem.block_cache`), so the walk indexes it like any other.
Adaptive decision policies ride the compiled walk via the ``decide``
bail.  Everything else — user-registered subclasses, exotic caches, a
host without a working C compiler, a crash inside the compiled walk —
falls back to the ``legacy`` interpreter for the whole run, recording
*every* failing condition in ``engine_profile["fallback_reason"]``.
Results are bit-identical to ``legacy`` either way.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.ccnuma import CCNUMAProtocol
from repro.core.dram_cache import DRAMBlockCacheProtocol
from repro.core.migrep import MigRepProtocol
from repro.core.protocol import DSMProtocol
from repro.core.rnuma import RNUMAProtocol
from repro.core.rnuma_migrep import RNUMAMigRepProtocol
from repro.core.scoma import SCOMAProtocol
from repro.engine._guard import (
    KernelBackendError,
    backend_crash_guard,
    engine_run_guard,
)
from repro.engine.classify import CLS_FAST, CLS_PROBE, classify_phase
from repro.engine.kernel.state import (
    CON_COMPUTE, CON_FAST_UNIT, KernelState, MUT_RESIDUAL,
    OUT_BLOCK, OUT_CLOCK, OUT_EVAL, OUT_FAULT, OUT_HOME, OUT_I, OUT_MODE,
    OUT_P,
    OUT_PAGE, OUT_SERVICE, OUT_START, OUT_VERSION, OUT_WAIT, OUT_WRITE,
    PP_ACC_CONT, PP_ACC_FAULT, PP_ACC_LOCAL, PP_ACC_PAGEOP, PP_ACC_REMOTE,
    PP_ACC_UPGRADE, PP_CLOCK, PP_EVICT, PP_FAST, PP_HITS, PP_INVAL,
    PP_MISS, PP_NODE, PP_PTR, PP_QCUR, PP_QLEN, PP_UPG,
    RC_BAIL_COLLAPSE, RC_BAIL_DECIDE, RC_BAIL_FAULT, RC_BAIL_MIGRATE,
    RC_BAIL_PAGECACHE, RC_BAIL_RELOCATE, RC_BAIL_REPLICATE,
    RC_DONE, schedule_arrays,
)
from repro.engine.kernel import cbuild
from repro.engine.legacy import run_legacy
from repro.mem.page_table import MODES_BY_CODE
from repro.stats.counters import MachineStats
from repro.stats.timing import StallKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine

_BAIL_NAMES = {RC_BAIL_FAULT: "fault", RC_BAIL_COLLAPSE: "collapse",
               RC_BAIL_REPLICATE: "replicate", RC_BAIL_MIGRATE: "migrate",
               RC_BAIL_RELOCATE: "relocate", RC_BAIL_DECIDE: "decide",
               RC_BAIL_PAGECACHE: "pagecache"}

#: stable key set of the ``bail_kinds`` dict in ``engine_profile``
BAIL_KIND_NAMES = ("fault", "collapse", "replicate", "migrate",
                   "relocate", "decide", "pagecache")

#: exact protocol types whose residual walk ``cwalk.c`` transcribes
_KERNEL_PROTOCOLS = (CCNUMAProtocol, MigRepProtocol, RNUMAProtocol,
                     SCOMAProtocol, RNUMAMigRepProtocol,
                     DRAMBlockCacheProtocol)


def kernel_eligibility(machine: "Machine", trace) -> Optional[str]:
    """Why ``machine`` cannot run on the kernel, or ``None`` if it can.

    The kernel's compiled lanes are transcriptions of the *stock*
    protocol family, so any override — a subclass, exotic cache
    geometry — disqualifies the whole run (per-reference fallback
    would cost more than it saves).  *Every*
    failing condition is collected and ``"; "``-joined into the
    user-facing fallback reason, so fixing one does not merely surface
    the next.
    """
    protocol = machine.protocol
    ptype = type(protocol)
    reasons = []
    procs = machine.processors[:trace.num_procs]
    if any(not hasattr(p.cache, "line_state") for p in procs):
        reasons.append("exotic L1 cache (no line_state)")
    elif len({p.cache.num_lines for p in procs}) > 1:
        reasons.append("heterogeneous L1 geometry")
    if len(machine.nodes) > 62:
        reasons.append("more than 62 nodes (sharer masks exceed int64)")
    if len({bc.capacity_blocks for bc in machine.block_caches}) > 1:
        reasons.append("heterogeneous block-cache capacity")
    if not (ptype.handle_miss is DSMProtocol.handle_miss
            and ptype._directory_read is DSMProtocol._directory_read
            and ptype._directory_write is DSMProtocol._directory_write
            and ptype.handle_upgrade is DSMProtocol.handle_upgrade
            and ptype.note_l1_eviction is DSMProtocol.note_l1_eviction
            and ptype._remote_fetch is DSMProtocol._remote_fetch
            and ptype._remote_fill is DSMProtocol._remote_fill):
        reasons.append(f"protocol {ptype.__name__} overrides base machinery")
    if ptype not in _KERNEL_PROTOCOLS:
        reasons.append(f"unsupported protocol {ptype.__name__}")
    elif isinstance(protocol, RNUMAProtocol):
        # the page-cache probe lane needs a cache to probe on every node
        if any(pc is None for pc in machine.page_caches):
            reasons.append("page-cache protocol with a cache-less node")
    elif any(pc is not None for pc in machine.page_caches):
        reasons.append(
            f"page cache present on non-page-cache protocol "
            f"{ptype.__name__}")
    return "; ".join(reasons) if reasons else None


def run_kernel(machine: "Machine", trace) -> MachineStats:
    """Run ``trace`` on ``machine`` with the compiled residual kernel.

    Ineligible systems, a missing C toolchain and a backend crash fall
    back to the ``legacy`` interpreter for the whole run; the resulting
    ``engine_profile`` carries ``engine="legacy"``,
    ``requested_engine="kernel"`` and the ``fallback_reason``.
    """
    reason = kernel_eligibility(machine, trace)
    if reason is None:
        bind = cbuild.load_cwalk()
        if bind is None:
            reason = "C backend build failed (no working compiler?)"
        else:
            try:
                return _run(machine, trace, bind)
            except KernelBackendError as exc:
                # the crashed walk may have half-mutated the array stores,
                # so the legacy re-run needs a pristine machine; the
                # caller's machine adopts its results to stay consistent
                from repro.cluster.machine import Machine
                fresh = Machine(machine.cfg, machine.system)
                stats = _run_fallback(fresh, trace, str(exc))
                machine.stats = fresh.stats
                machine.timing = fresh.timing
                return stats
    return _run_fallback(machine, trace, reason)


def _run_fallback(machine: "Machine", trace, reason: str) -> MachineStats:
    """Run on the legacy interpreter, profiled as a kernel fallback."""
    t0 = perf_counter()
    refs_before = machine.stats.total_accesses
    stats = run_legacy(machine, trace)
    stats.engine_profile = {
        "engine": "legacy",
        "requested_engine": "kernel",
        "fallback_reason": reason,
        "references": stats.total_accesses - refs_before,
        "fast": 0,
        "phases": len(trace.phases),
        "wall_s": round(perf_counter() - t0, 6),
    }
    return stats


def _run(machine: "Machine", trace, bind) -> MachineStats:
    costs = machine.cfg.costs
    protocol = machine.protocol
    num_procs = trace.num_procs
    procs = machine.processors
    caches = [procs[p].cache for p in range(num_procs)]
    node_of = [procs[p].node_id for p in range(num_procs)]
    lines_of = [c.num_lines for c in caches]
    line_stores = [c.line_state() for c in caches]
    handle_miss = protocol.handle_miss
    service_remote = protocol._service_remote_page
    note_l1_eviction = protocol.note_l1_eviction
    maybe_relocate = getattr(protocol, "_maybe_relocate", None)
    perform_relocation = getattr(protocol, "_perform_relocation", None)
    evaluate_migrep = (getattr(protocol, "_evaluate_migrep", None)
                       or getattr(protocol, "_evaluate_policy", None))
    l1_hit_cost = costs.l1_hit
    node_stats = machine.stats.nodes
    timing_procs = machine.timing.processors

    P = num_procs
    st = KernelState(machine, num_procs, caches, node_of)
    pp = st.pp
    out = st.out

    # page-operation shootdown watch: a page operation invalidating an L1
    # line records the affected (processor, cache set) in `events`, which
    # demotes the pending fast refs of exactly that set — the
    # classifier's occupancy proof is per set, so other sets' proofs
    # survive the shootdown.  A whole-cache drop (clear) records True.
    # The fill watch is the mirror hook: an out-of-band L1 *fill* by
    # protocol code evicts whatever the classifier assumed resident in
    # that set, so it demotes exactly like a shootdown.
    events: dict = {}

    def _mk_watch(p: int, nl: int):
        def _watch(block: int = -1) -> None:
            flushed = events.get(p)
            if flushed is True:
                return
            if block < 0:
                events[p] = True
            elif flushed is None:
                events[p] = {block % nl}
            else:
                flushed.add(block % nl)
        return _watch

    prof_total = 0
    prof_demoted = 0
    bails = 0
    bail_kinds = {name: 0 for name in BAIL_KIND_NAMES}
    run_t0 = perf_counter()

    # the guard releases the state's views on every exit, so a raised run
    # leaves no store export-locked
    with engine_run_guard(caches,
                          [_mk_watch(p, lines_of[p]) for p in range(P)],
                          st.release):
        for phase in trace.phases:
            blocks_np = phase.blocks
            writes_np = phase.writes
            if len(blocks_np) != num_procs:
                raise ValueError(
                    "phase stream count does not match trace.num_procs")
            lengths = [len(seq) for seq in blocks_np]
            compute = phase.compute_per_access
            fast_unit = compute + l1_hit_cost

            max_block = -1
            for arr in blocks_np:
                if len(arr):
                    m = int(arr.max())
                    if m > max_block:
                        max_block = m
            # re-takes the views, and drops the binding, only on growth
            st.reserve_for_phase(max_block)

            cls, sched = classify_phase(blocks_np, writes_np,
                                        (st.cb, st.cv), st.dir_versions,
                                        phase=phase)
            slot_of = sched.slot_of
            status = sched.status
            status_off = sched.status_off
            prof_total += sum(lengths)

            st.marshal_phase(sched, schedule_arrays(sched))
            st.con[CON_COMPUTE] = compute
            st.con[CON_FAST_UNIT] = fast_unit
            pp[:] = 0
            pp[PP_NODE * P:(PP_NODE + 1) * P] = node_of
            pp[PP_CLOCK * P:(PP_CLOCK + 1) * P] = [
                timing_procs[p].clock for p in range(P)]
            st.load_absolutes()
            if st.runner is None:
                with backend_crash_guard("c"):
                    st.runner = bind(st.walk_args())

            def demote_pending(i: int, p: int) -> None:
                """Demote pending fast refs after a page-op L1 shootdown.

                Called only when a ``watch``/``fill_watch`` hook fired
                during a bail (rare).  The affected processors' fast
                references ordered after ``(i, p)`` become probes again
                — in-schedule first touches proven fast at phase start
                via a status flip, statically-fast references by joining
                the per-proc demoted queues the walk merges by
                interleave key.  Demotions are exact: a demoted
                reference takes the ordinary probe path, and fast
                references ordered before the shootdown were unaffected
                by it.  The queue arrays are rebuilt, so the walk's
                re-entry sees the new heads.
                """
                nonlocal prof_demoted
                for p2, flushed in events.items():
                    if p2 >= num_procs:
                        continue
                    bound = i + 1 if p2 <= p else i
                    ptr2 = int(pp[PP_PTR * P + p2])
                    if bound < ptr2:
                        bound = ptr2
                    seg = cls[p2][bound:]
                    mask = seg == CLS_FAST
                    if flushed is not True:
                        # line-membership via a lookup table (cheaper
                        # than np.isin: no sort, O(seg + lines))
                        tbl = np.zeros(lines_of[p2], dtype=bool)
                        tbl[list(flushed)] = True
                        mask &= tbl[blocks_np[p2][bound:] % lines_of[p2]]
                    pend = np.flatnonzero(mask)
                    if not len(pend):
                        continue
                    seg[pend] = CLS_PROBE
                    prof_demoted += len(pend)
                    own = pend.astype(np.int64) + bound
                    slots = slot_of[p2][own]
                    in_sched = slots >= 0
                    fast_slots = slots[in_sched]
                    if len(fast_slots):
                        status[status_off[p2] + fast_slots] = 0
                    fresh = own[~in_sched]
                    if len(fresh):
                        blks = blocks_np[p2][fresh].astype(np.int64,
                                                           copy=False)
                        cur = int(pp[PP_QCUR * P + p2])
                        tail_i = st.q_idx[p2][cur:]
                        if len(tail_i):
                            cat_i = np.concatenate([tail_i, fresh])
                            cat_b = np.concatenate(
                                [st.q_blk[p2][cur:], blks])
                            order = np.argsort(cat_i)
                            st.q_idx[p2] = np.ascontiguousarray(
                                cat_i[order])
                            st.q_blk[p2] = np.ascontiguousarray(
                                cat_b[order])
                        else:
                            st.q_idx[p2] = np.ascontiguousarray(fresh)
                            st.q_blk[p2] = np.ascontiguousarray(blks)
                        pp[PP_QCUR * P + p2] = 0
                        pp[PP_QLEN * P + p2] = len(st.q_idx[p2])
                events.clear()

            while True:
                with backend_crash_guard("c"):
                    rc = st.runner()
                if rc == RC_DONE:
                    break
                bails += 1
                bail_kinds[_BAIL_NAMES[rc]] += 1
                # the bail handlers read/advance the live NICs and may
                # consult the vm's record dict; every other mirror is
                # either a shared view (already exact) or a
                # pure-increment delta (folded at phase end)
                st.materialize_placements()
                st.sync_nics_out()
                p = int(out[OUT_P])
                i = int(out[OUT_I])
                block = int(out[OUT_BLOCK])
                page = int(out[OUT_PAGE])
                is_write = bool(out[OUT_WRITE])
                start = int(out[OUT_START])
                wait = int(out[OUT_WAIT])
                clock = int(out[OUT_CLOCK])
                node = node_of[p]
                if rc == RC_BAIL_FAULT:
                    service, pageop, fault, version, remote = handle_miss(
                        node, p, page, block, is_write, start)
                elif rc == RC_BAIL_COLLAPSE or rc == RC_BAIL_PAGECACHE:
                    mode = MODES_BY_CODE[int(out[OUT_MODE])]
                    service, pageop, version, remote = service_remote(
                        node, p, page, block, is_write, start,
                        int(out[OUT_HOME]), mode)
                    fault = int(out[OUT_FAULT])
                elif rc == RC_BAIL_DECIDE:
                    # the walk completed the fill; run the adaptive
                    # decision evaluations it flagged, in legacy order
                    service = int(out[OUT_SERVICE])
                    version = int(out[OUT_VERSION])
                    remote = True
                    fault = int(out[OUT_FAULT])
                    flags = int(out[OUT_EVAL])
                    pageop = 0
                    if flags & 1:
                        pageop += maybe_relocate(node, page, start)
                    if flags & 2:
                        pageop += evaluate_migrep(
                            page, node, int(out[OUT_HOME]), start)
                else:
                    # the walk completed the fill; run the page operation
                    service = int(out[OUT_SERVICE])
                    version = int(out[OUT_VERSION])
                    remote = True
                    fault = int(out[OUT_FAULT])
                    if rc == RC_BAIL_REPLICATE:
                        pageop = protocol._perform_replication(
                            page, node, start)
                    elif rc == RC_BAIL_MIGRATE:
                        pageop = protocol._perform_migration(
                            page, node, start)
                    else:
                        pageop = perform_relocation(node, page, start)
                if events:
                    demote_pending(i, p)
                # generic tail: L1 fill + eviction notification, through
                # the owning line stores (the walk's views alias them)
                line_b, line_v, line_d = line_stores[p]
                idx = block % lines_of[p]
                old = line_b[idx]
                victim_dirty = bool(line_d[idx])
                line_b[idx] = block
                line_v[idx] = version
                line_d[idx] = is_write
                if old >= 0 and old != block:
                    pp[PP_EVICT * P + p] += 1
                    note_l1_eviction(node, old, victim_dirty)
                pp[PP_ACC_CONT * P + p] += wait
                if remote:
                    pp[PP_ACC_REMOTE * P + p] += service
                else:
                    pp[PP_ACC_LOCAL * P + p] += service
                pp[PP_ACC_PAGEOP * P + p] += pageop
                pp[PP_ACC_FAULT * P + p] += fault
                pp[PP_CLOCK * P + p] = clock + wait + service + pageop + fault
                # protocol calls may have advanced the NICs
                st.load_nics()

            st.flush()
            # trailing guaranteed hits + per-phase statistics flush, over
            # plain ints (one conversion instead of a scalar per read)
            acc = pp.tolist()
            for p in range(P):
                n_hits = (acc[PP_FAST * P + p] + acc[PP_HITS * P + p]
                          + lengths[p] - acc[PP_PTR * P + p])
                pt = timing_procs[p]
                pt.advance(StallKind.COMPUTE, compute * lengths[p])
                pt.advance(StallKind.L1_HIT, l1_hit_cost * n_hits)
                pt.advance(StallKind.LOCAL_MISS, acc[PP_ACC_LOCAL * P + p])
                pt.advance(StallKind.REMOTE_MISS, acc[PP_ACC_REMOTE * P + p])
                pt.advance(StallKind.UPGRADE, acc[PP_ACC_UPGRADE * P + p])
                pt.advance(StallKind.PAGE_OP, acc[PP_ACC_PAGEOP * P + p])
                pt.advance(StallKind.MAPPING_FAULT,
                           acc[PP_ACC_FAULT * P + p])
                pt.advance(StallKind.CONTENTION, acc[PP_ACC_CONT * P + p])
                ns = node_stats[node_of[p]]
                ns.accesses += lengths[p]
                ns.l1_hits += n_hits
                caches[p].credit_batch(
                    hits=n_hits + acc[PP_UPG * P + p],
                    misses=acc[PP_MISS * P + p],
                    evictions=acc[PP_EVICT * P + p],
                    invalidations=acc[PP_INVAL * P + p])

            machine.timing.barrier(costs.barrier_cost)
            machine.stats.barrier_count += 1

    prof_residual = int(st.mut[MUT_RESIDUAL])
    machine.stats.execution_time = machine.timing.max_clock()
    machine.stats.proc_finish_times = [
        timing_procs[p].clock for p in range(num_procs)
    ]
    machine.stats.network_messages = machine.network.total_messages()
    machine.stats.network_bytes = machine.network.total_bytes()
    machine.stats.message_stats = machine.network.stats
    machine.stats.stall_breakdown = dict(machine.timing.aggregate_stalls())
    machine.stats.engine_profile = {
        "engine": "kernel",
        "backend": "c",
        "references": prof_total,
        "fast": prof_total - prof_residual,
        "demoted": prof_demoted,
        "residual": prof_residual,
        "phases": len(trace.phases),
        "bails": bails,
        "bail_kinds": bail_kinds,
        "wall_s": round(perf_counter() - run_t0, 6),
    }
    return machine.stats
