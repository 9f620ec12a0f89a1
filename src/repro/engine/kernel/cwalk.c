/* The compiled residual walk of the kernel engine (repro/engine/kernel).
 *
 * Walks one phase's residual schedule in the reference interpreter's
 * round-robin order and reproduces repro/engine/legacy.py bit for bit;
 * the equivalence suite pins it there.  Layout constants mirror
 * repro/engine/kernel/state.py.
 *
 * Built on demand by cbuild.py (plain `cc -O2 -shared -fPIC`, no Python
 * headers needed) and called through ctypes; every argument is a raw
 * array base pointer obtained from the numpy views, so the walk mutates
 * the simulator's stores in place.  The arguments are bound once per run;
 * the per-phase inputs (schedule columns, status bytes) are reached
 * through the `phase` pointer table, which the driver re-points.
 */

#include <stdint.h>

/* CON indices */
#define CON_NUM_PROCS 0
#define CON_NUM_NODES 1
#define CON_BPP 2
#define CON_COMPUTE 3
#define CON_L1_HIT 4
#define CON_FAST_UNIT 5
#define CON_BUS_OCC 6
#define CON_BUS_ENABLED 7
#define CON_LOCAL_MISS 8
#define CON_REMOTE_MISS 9
#define CON_INVAL_COST 10
#define CON_NET_ENABLED 11
#define CON_NET_LATENCY 12
#define CON_NIC_OCC 13
#define CON_SZ_READ_PAIR 14
#define CON_SZ_WRITE_PAIR 15
#define CON_SZ_WB 16
#define CON_SZ_INV_PAIR 17
#define CON_MSG_READ 18
#define CON_MSG_WRITE 19
#define CON_MSG_DATA 20
#define CON_MSG_WB 21
#define CON_MSG_INV 22
#define CON_MSG_ACK 23
#define CON_HAS_MIGREP 24
#define CON_MR_THRESHOLD 25
#define CON_MR_MIG 26
#define CON_MR_REP 27
#define CON_MR_RESET 28
#define CON_DIR_CAP 29
#define CON_VM_LEN 30
#define CON_N_SCHED 31
#define CON_BC_CAP 32
#define CON_NUM_LINES 33
#define CON_MODE_REPLICA 34
#define CON_MODE_LOCAL_HOME 35
#define CON_DEP_EVICTED 36
#define CON_DEP_INVALIDATED 37
#define CON_SOFT_TRAP 38
#define CON_MSG_MAP_REQ 39
#define CON_MSG_MAP_REPLY 40
#define CON_SZ_MAP_PAIR 41
#define CON_MODE_CCNUMA_REMOTE 42
#define CON_FIRST_TOUCH 43
#define CON_HAS_RNUMA 44
#define CON_RN_STATIC 45
#define CON_RN_THRESHOLD 46
#define CON_RN_DELAY 47
#define CON_HAS_PAGECACHE 48
#define CON_SCOMA_ALLOC 49
#define CON_HYBRID 50
#define CON_MR_STATIC 51
#define CON_BC_PENALTY 52
#define CON_MR_HYST 53

/* FCON — float64 run constants (see state.py) */
#define FCON_HY_THRESHOLD 0
#define FCON_HY_DECAY 1

/* PP rows */
#define PP_PTR 0
#define PP_FAST 1
#define PP_HITS 2
#define PP_UPG 3
#define PP_MISS 4
#define PP_INVAL 5
#define PP_EVICT 6
#define PP_ACC_LOCAL 7
#define PP_ACC_REMOTE 8
#define PP_ACC_UPGRADE 9
#define PP_ACC_PAGEOP 10
#define PP_ACC_FAULT 11
#define PP_ACC_CONT 12
#define PP_CLOCK 13
#define PP_NODE 14
#define PP_QCUR 15
#define PP_QLEN 16

/* NN rows */
#define NN_BUS_FREE 0
#define NN_BUS_TXN 1
#define NN_BUS_WAIT 2
#define NN_NIC_FREE 3
#define NN_NIC_MSGS 4
#define NN_NIC_BUSY 5
#define NN_NIC_WAIT 6
#define NN_NS_LOCAL 7
#define NN_NS_REMOTE 8
#define NN_NS_UPGRADES 9
#define NN_NS_BCHITS 10
#define NN_NS_CAUSE0 11
#define NN_BCS_HITS 14
#define NN_BCS_MISSES 15
#define NN_BCS_INVAL 16
#define NN_BCS_EVICT 17
#define NN_MAPFAULT 18
#define NN_NS_PCHITS 19
#define NN_PCS_HITS 20
#define NN_PCS_MISSES 21
#define NN_PCS_FILLS 22
#define NN_PCS_INVAL 23
#define NN_RF_TOTAL 24

/* MUT cells */
#define MUT_K 0
#define MUT_BYTES 1
#define MUT_DIR_INV 2
#define MUT_DIR_WB 3
#define MUT_CTR_RESETS 4
#define MUT_RESIDUAL 5
#define MUT_NPLACED 6

/* OUT record */
#define OUT_KIND 0
#define OUT_P 1
#define OUT_I 2
#define OUT_BLOCK 3
#define OUT_PAGE 4
#define OUT_WRITE 5
#define OUT_START 6
#define OUT_WAIT 7
#define OUT_CLOCK 8
#define OUT_HOME 9
#define OUT_MODE 10
#define OUT_SERVICE 11
#define OUT_VERSION 12
#define OUT_FAULT 13
#define OUT_EVAL 14

/* PH slots — the per-phase pointer table (see state.py) */
#define PH_I 0
#define PH_P 1
#define PH_PROBE 2
#define PH_BLK 3
#define PH_WRT 4
#define PH_SLOT 5
#define PH_KEYS 6
#define PH_STATUS 7
#define PH_STATUS_OFF 8

/* return codes */
#define RC_DONE 0
#define RC_BAIL_FAULT 1
#define RC_BAIL_COLLAPSE 2
#define RC_BAIL_REPLICATE 3
#define RC_BAIL_MIGRATE 4
#define RC_BAIL_RELOCATE 5
#define RC_BAIL_DECIDE 6
#define RC_BAIL_PAGECACHE 7

#define BAIL(code) do { \
    mut[MUT_K] = k; \
    out[OUT_KIND] = (code); \
    out[OUT_P] = p; \
    out[OUT_I] = i; \
    out[OUT_BLOCK] = block; \
    out[OUT_PAGE] = page; \
    out[OUT_WRITE] = is_write; \
    out[OUT_START] = start; \
    out[OUT_WAIT] = wait; \
    out[OUT_CLOCK] = clock; \
    out[OUT_HOME] = home; \
    out[OUT_MODE] = mode_c; \
    out[OUT_FAULT] = fault; \
    return (code); \
} while (0)

/* inlined _directory_write: sets version/extra, marks departures,
 * accumulates invalidation traffic */
#define DIR_WRITE() do { \
    dir_tracked[block] = 1; \
    int64_t bit = (int64_t)1 << node; \
    int64_t others = dir_sharers[block] & ~bit; \
    int64_t o = dir_owner[block]; \
    if (o >= 0 && o != node) mut[MUT_DIR_WB] += 1; \
    dir_sharers[block] = bit; \
    dir_owner[block] = node; \
    version = dir_versions[block] + 1; \
    dir_versions[block] = version; \
    extra = 0; \
    if (others) { \
        int64_t invals = 0, tmp = others; \
        while (tmp) { tmp &= tmp - 1; invals += 1; } \
        mut[MUT_DIR_INV] += invals; \
        extra = invals * inval_cost; \
        msg_delta[inv_i] += invals; \
        msg_delta[ack_i] += invals; \
        mut[MUT_BYTES] += invals * sz_inv_pair; \
        int64_t nidx = 0; \
        while (others) { \
            if (others & 1) departed[nidx][block] = (uint8_t)dep_invalidated; \
            others >>= 1; \
            nidx += 1; \
        } \
    } \
} while (0)

/* four-point NIC serialisation of a request/reply round trip */
#define NIC_ROUND_TRIP() do { \
    int64_t occ2 = nic_occ + nic_occ; \
    if (!net_enabled) { \
        nn[NN_NIC_MSGS * N + node] += 2; \
        nn[NN_NIC_MSGS * N + home] += 2; \
        nn[NN_NIC_BUSY * N + node] += occ2; \
        nn[NN_NIC_BUSY * N + home] += occ2; \
        contention = 0; \
    } else { \
        int64_t free_, s1, w1, t, s2, w2, t2, s3, w3, t3, s4, w4; \
        free_ = nn[NN_NIC_FREE * N + node]; \
        s1 = start >= free_ ? start : free_; \
        w1 = s1 - start; \
        nn[NN_NIC_FREE * N + node] = s1 + nic_occ; \
        t = s1 + nic_occ + net_latency; \
        free_ = nn[NN_NIC_FREE * N + home]; \
        s2 = t >= free_ ? t : free_; \
        w2 = s2 - t; \
        nn[NN_NIC_FREE * N + home] = s2 + nic_occ; \
        t2 = s2 + nic_occ; \
        free_ = nn[NN_NIC_FREE * N + home]; \
        s3 = t2 >= free_ ? t2 : free_; \
        w3 = s3 - t2; \
        nn[NN_NIC_FREE * N + home] = s3 + nic_occ; \
        t3 = s3 + nic_occ + net_latency; \
        free_ = nn[NN_NIC_FREE * N + node]; \
        s4 = t3 >= free_ ? t3 : free_; \
        w4 = s4 - t3; \
        nn[NN_NIC_FREE * N + node] = s4 + nic_occ; \
        nn[NN_NIC_MSGS * N + node] += 2; \
        nn[NN_NIC_MSGS * N + home] += 2; \
        nn[NN_NIC_BUSY * N + node] += occ2; \
        nn[NN_NIC_BUSY * N + home] += occ2; \
        nn[NN_NIC_WAIT * N + node] += w1 + w4; \
        nn[NN_NIC_WAIT * N + home] += w2 + w3; \
        contention = w1 + w2 + w3 + w4; \
    } \
} while (0)

/* home-side MigRep counter bump (record_miss + reset-interval check) */
#define CTR_BUMP() do { \
    int64_t cbase = page * N; \
    if (is_write) { \
        ctr_live_w[page] = 1; \
        ctr_write[cbase + node] += 1; \
    } else { \
        ctr_live_r[page] = 1; \
        ctr_read[cbase + node] += 1; \
    } \
    int64_t total = ctr_since[page] + 1; \
    if (total >= mr_reset) { \
        for (int64_t nx = 0; nx < N; nx++) { \
            ctr_read[cbase + nx] = 0; \
            ctr_write[cbase + nx] = 0; \
        } \
        ctr_since[page] = 0; \
        ctr_live_r[page] = 0; \
        ctr_live_w[page] = 0; \
        mut[MUT_CTR_RESETS] += 1; \
    } else { \
        ctr_since[page] = total; \
    } \
} while (0)

/* inlined base note_l1_eviction for an evicted L1 victim `old`
 * (page-cache-resident victims are still locally backed: no departure) */
#define L1_EVICT_NOTE() do { \
    if (bc_blocks[node][old % bc_cap] != old) { \
        int64_t vpage = old / bpp; \
        if (!has_pagecache || !pc_res[node][vpage]) { \
            int64_t vh = vm_home[vpage]; \
            if (vh >= 0 && vh != node) \
                departed[node][old] = (uint8_t)dep_evicted; \
        } \
    } \
} while (0)

int64_t repro_kernel_walk(
    int64_t* con, double* fcon, int64_t* mut, int64_t* pp, int64_t* nn,
    int64_t* msg_delta, int64_t* out,
    int64_t* dir_sharers, int64_t* dir_owner, int64_t* dir_versions,
    uint8_t* dir_tracked,
    int64_t* vm_home, uint8_t* vm_replicated, int64_t* vm_replica_mask,
    int64_t* ctr_read, int64_t* ctr_write, int64_t* ctr_since,
    uint8_t* ctr_live_r, uint8_t* ctr_live_w,
    double* hy_scores, int64_t* hy_seen,
    uint8_t** departed, uint8_t** pt_modes,
    uint8_t** pt_tracked, int64_t** pt_faults,
    int64_t** bc_blocks, int64_t** bc_versions, uint8_t** bc_dirty,
    int64_t** cb, int64_t** cv, uint8_t** cd, void** phase,
    int64_t** rf_counts, int64_t* pg_totals,
    uint8_t** pc_res, int64_t** pc_version, uint8_t** pc_dirty,
    int64_t** pc_stamp, int64_t** pc_clock, int64_t** pc_nvalid,
    int64_t** pc_ndirty, int64_t** pc_fills,
    int64_t* place_log, int64_t** q_idx, int64_t** q_blk)
{
    const int64_t P = con[CON_NUM_PROCS];
    const int64_t N = con[CON_NUM_NODES];
    const int64_t bpp = con[CON_BPP];
    const int64_t compute = con[CON_COMPUTE];
    const int64_t l1_hit_cost = con[CON_L1_HIT];
    const int64_t fast_unit = con[CON_FAST_UNIT];
    const int64_t bus_occ = con[CON_BUS_OCC];
    const int64_t bus_enabled = con[CON_BUS_ENABLED];
    const int64_t local_miss_cost = con[CON_LOCAL_MISS];
    const int64_t remote_miss_cost = con[CON_REMOTE_MISS];
    const int64_t inval_cost = con[CON_INVAL_COST];
    const int64_t net_enabled = con[CON_NET_ENABLED];
    const int64_t net_latency = con[CON_NET_LATENCY];
    const int64_t nic_occ = con[CON_NIC_OCC];
    const int64_t sz_read_pair = con[CON_SZ_READ_PAIR];
    const int64_t sz_write_pair = con[CON_SZ_WRITE_PAIR];
    const int64_t sz_wb = con[CON_SZ_WB];
    const int64_t sz_inv_pair = con[CON_SZ_INV_PAIR];
    const int64_t read_i = con[CON_MSG_READ];
    const int64_t write_i = con[CON_MSG_WRITE];
    const int64_t data_i = con[CON_MSG_DATA];
    const int64_t wb_i = con[CON_MSG_WB];
    const int64_t inv_i = con[CON_MSG_INV];
    const int64_t ack_i = con[CON_MSG_ACK];
    const int64_t has_migrep = con[CON_HAS_MIGREP];
    const int64_t mr_threshold = con[CON_MR_THRESHOLD];
    const int64_t mr_migration = con[CON_MR_MIG];
    const int64_t mr_replication = con[CON_MR_REP];
    const int64_t mr_reset = con[CON_MR_RESET];
    const int64_t n_sched = con[CON_N_SCHED];
    const int64_t bc_cap = con[CON_BC_CAP];
    const int64_t num_lines = con[CON_NUM_LINES];
    const int64_t replica_code = con[CON_MODE_REPLICA];
    const int64_t local_home_code = con[CON_MODE_LOCAL_HOME];
    const int64_t ccnuma_remote_code = con[CON_MODE_CCNUMA_REMOTE];
    const int64_t dep_evicted = con[CON_DEP_EVICTED];
    const int64_t dep_invalidated = con[CON_DEP_INVALIDATED];
    const int64_t soft_trap = con[CON_SOFT_TRAP];
    const int64_t map_req_i = con[CON_MSG_MAP_REQ];
    const int64_t map_reply_i = con[CON_MSG_MAP_REPLY];
    const int64_t sz_map_pair = con[CON_SZ_MAP_PAIR];
    const int64_t first_touch_ok = con[CON_FIRST_TOUCH];
    const int64_t has_rnuma = con[CON_HAS_RNUMA];
    const int64_t rn_static = con[CON_RN_STATIC];
    const int64_t rn_threshold = con[CON_RN_THRESHOLD];
    const int64_t rn_delay = con[CON_RN_DELAY];
    const int64_t has_pagecache = con[CON_HAS_PAGECACHE];
    const int64_t scoma_alloc = con[CON_SCOMA_ALLOC];
    const int64_t hybrid = con[CON_HYBRID];
    const int64_t mr_static = con[CON_MR_STATIC];
    const int64_t bc_penalty = con[CON_BC_PENALTY];
    const int64_t mr_hyst = con[CON_MR_HYST];
    const double hy_threshold = fcon[FCON_HY_THRESHOLD];
    const double hy_decay = fcon[FCON_HY_DECAY];

    /* the phase's schedule columns and first-touch status bytes */
    const int64_t* ent_i = (const int64_t*)phase[PH_I];
    const int64_t* ent_p = (const int64_t*)phase[PH_P];
    const uint8_t* ent_probe = (const uint8_t*)phase[PH_PROBE];
    const int64_t* ent_blk = (const int64_t*)phase[PH_BLK];
    const uint8_t* ent_wrt = (const uint8_t*)phase[PH_WRT];
    const int64_t* ent_slot = (const int64_t*)phase[PH_SLOT];
    const int64_t* keys = (const int64_t*)phase[PH_KEYS];
    const uint8_t* status = (const uint8_t*)phase[PH_STATUS];
    const int64_t* status_off = (const int64_t*)phase[PH_STATUS_OFF];

    int64_t k = mut[MUT_K];

    /* earliest demoted-queue head; recomputed only on queue consumption */
    int64_t nk = -1, pq = -1;
    for (int64_t p2 = 0; p2 < P; p2++) {
        int64_t c2 = pp[PP_QCUR * P + p2];
        if (c2 < pp[PP_QLEN * P + p2]) {
            int64_t key2 = q_idx[p2][c2] * P + p2;
            if (nk < 0 || key2 < nk) { nk = key2; pq = p2; }
        }
    }

    for (;;) {
        int64_t i, p, probe, block, is_write, slot;
        if (nk >= 0 && (k >= n_sched || nk < keys[k])) {
            p = pq;
            int64_t c = pp[PP_QCUR * P + p];
            i = q_idx[p][c];
            block = q_blk[p][c];
            pp[PP_QCUR * P + p] = c + 1;
            probe = 1;
            is_write = 0;
            slot = -1;
            nk = -1; pq = -1;
            for (int64_t p2 = 0; p2 < P; p2++) {
                int64_t c2 = pp[PP_QCUR * P + p2];
                if (c2 < pp[PP_QLEN * P + p2]) {
                    int64_t key2 = q_idx[p2][c2] * P + p2;
                    if (nk < 0 || key2 < nk) { nk = key2; pq = p2; }
                }
            }
        } else if (k < n_sched) {
            i = ent_i[k];
            p = ent_p[k];
            probe = ent_probe[k];
            block = ent_blk[k];
            is_write = ent_wrt[k];
            slot = ent_slot[k];
            k += 1;
            if (status[status_off[p] + slot])
                continue;    /* first touch proven fast: consumed via ptr */
        } else {
            break;
        }
        mut[MUT_RESIDUAL] += 1;

        /* consume the guaranteed hits since this proc's last residual */
        int64_t n_fast = i - pp[PP_PTR * P + p];
        int64_t base = pp[PP_CLOCK * P + p];
        if (n_fast > 0) {
            base += n_fast * fast_unit;
            pp[PP_FAST * P + p] += n_fast;
        }
        pp[PP_PTR * P + p] = i + 1;
        int64_t clock = base + compute;
        int64_t node = pp[PP_NODE * P + p];
        int64_t* cb_p = cb[p];
        int64_t* cv_p = cv[p];
        uint8_t* cd_p = cd[p];
        int64_t idx = block % num_lines;
        int64_t version, service, extra, contention;

        if (probe && cb_p[idx] == block) {
            version = dir_versions[block];
            if (cv_p[idx] >= version) {
                if (!is_write) {
                    pp[PP_HITS * P + p] += 1;
                    pp[PP_CLOCK * P + p] = clock + l1_hit_cost;
                    continue;
                }
                if (cd_p[idx]) {
                    pp[PP_HITS * P + p] += 1;
                    pp[PP_CLOCK * P + p] = clock + l1_hit_cost;
                    continue;
                }
                /* write upgrade: invalidate other sharers */
                pp[PP_UPG * P + p] += 1;
                int64_t page = block / bpp;
                int64_t start, wait;
                if (bus_enabled) {
                    int64_t free_ = nn[NN_BUS_FREE * N + node];
                    start = clock >= free_ ? clock : free_;
                    nn[NN_BUS_WAIT * N + node] += start - clock;
                    nn[NN_BUS_FREE * N + node] = start + bus_occ;
                } else {
                    start = clock;
                }
                nn[NN_BUS_TXN * N + node] += 1;
                wait = start - clock;
                /* inlined base handle_upgrade */
                nn[NN_NS_UPGRADES * N + node] += 1;
                int64_t home = vm_home[page];
                DIR_WRITE();
                int64_t new_version = version;
                int64_t latency;
                if (home < 0 || home == node) {
                    latency = local_miss_cost + extra;
                } else {
                    msg_delta[write_i] += 1;
                    msg_delta[data_i] += 1;
                    mut[MUT_BYTES] += sz_write_pair;
                    NIC_ROUND_TRIP();
                    latency = remote_miss_cost + contention + extra;
                }
                /* inlined touch_write (the probed line holds `block`) */
                cd_p[idx] = 1;
                if (new_version > cv_p[idx])
                    cv_p[idx] = new_version;
                pp[PP_ACC_CONT * P + p] += wait;
                pp[PP_ACC_UPGRADE * P + p] += latency;
                pp[PP_CLOCK * P + p] = clock + wait + latency;
                continue;
            }
            /* stale copy: drop it so the fill below refreshes it */
            cb_p[idx] = -1;
            cd_p[idx] = 0;
            pp[PP_INVAL * P + p] += 1;
        }

        /* miss path (classified miss, absent line, or stale drop) */
        pp[PP_MISS * P + p] += 1;
        int64_t page = block / bpp;
        int64_t start, wait;
        if (bus_enabled) {
            int64_t free_ = nn[NN_BUS_FREE * N + node];
            start = clock >= free_ ? clock : free_;
            nn[NN_BUS_WAIT * N + node] += start - clock;
            nn[NN_BUS_FREE * N + node] = start + bus_occ;
        } else {
            start = clock;
        }
        nn[NN_BUS_TXN * N + node] += 1;
        wait = start - clock;

        int64_t home = vm_home[page];
        int64_t mode_c = home >= 0 ? (int64_t)pt_modes[node][page] : 0;
        int64_t fault = 0;
        if (mode_c == 0) {
            /* mapping fault (inlined ensure_mapped).  First touches under
             * a configured placement policy bail — only Python knows the
             * policy; first-touch placement itself and remap faults on
             * already-placed pages run right here. */
            if (home < 0 && !first_touch_ok)
                BAIL(RC_BAIL_FAULT);
            if (home < 0) {
                /* first touch: home the page at the requester; the
                 * PageRecord side is deferred to the placement log */
                home = node;
                vm_home[page] = node;
                place_log[mut[MUT_NPLACED]] = (page << 6) | node;
                mut[MUT_NPLACED] += 1;
            }
            fault = soft_trap;
            nn[NN_MAPFAULT * N + node] += 1;
            pt_faults[node][page] += 1;
            pt_tracked[node][page] = 1;
            if (home == node) {
                mode_c = local_home_code;
            } else {
                /* map request/reply, both one-way messages sent at t=0 */
                mode_c = ccnuma_remote_code;
                msg_delta[map_req_i] += 1;
                msg_delta[map_reply_i] += 1;
                mut[MUT_BYTES] += sz_map_pair;
                int64_t occ2 = nic_occ + nic_occ;
                if (!net_enabled) {
                    nn[NN_NIC_MSGS * N + node] += 2;
                    nn[NN_NIC_MSGS * N + home] += 2;
                    nn[NN_NIC_BUSY * N + node] += occ2;
                    nn[NN_NIC_BUSY * N + home] += occ2;
                } else {
                    int64_t free_, s1, t, s2, s3, t3, s4;
                    free_ = nn[NN_NIC_FREE * N + node];
                    s1 = 0 >= free_ ? 0 : free_;
                    nn[NN_NIC_WAIT * N + node] += s1;
                    nn[NN_NIC_FREE * N + node] = s1 + nic_occ;
                    t = s1 + nic_occ + net_latency;
                    free_ = nn[NN_NIC_FREE * N + home];
                    s2 = t >= free_ ? t : free_;
                    nn[NN_NIC_WAIT * N + home] += s2 - t;
                    nn[NN_NIC_FREE * N + home] = s2 + nic_occ;
                    free_ = nn[NN_NIC_FREE * N + home];
                    s3 = 0 >= free_ ? 0 : free_;
                    nn[NN_NIC_WAIT * N + home] += s3;
                    nn[NN_NIC_FREE * N + home] = s3 + nic_occ;
                    t3 = s3 + nic_occ + net_latency;
                    free_ = nn[NN_NIC_FREE * N + node];
                    s4 = t3 >= free_ ? t3 : free_;
                    nn[NN_NIC_WAIT * N + node] += s4 - t3;
                    nn[NN_NIC_FREE * N + node] = s4 + nic_occ;
                    nn[NN_NIC_MSGS * N + node] += 2;
                    nn[NN_NIC_MSGS * N + home] += 2;
                    nn[NN_NIC_BUSY * N + node] += occ2;
                    nn[NN_NIC_BUSY * N + home] += occ2;
                }
            }
            pt_modes[node][page] = (uint8_t)mode_c;
        }

        if (mode_c == local_home_code || home == node) {
            /* local fill (base body + MigRep home-side counter bump) */
            nn[NN_NS_LOCAL * N + node] += 1;
            if (is_write) {
                DIR_WRITE();
                service = local_miss_cost + extra;
            } else {
                dir_tracked[block] = 1;
                dir_sharers[block] |= (int64_t)1 << node;
                version = dir_versions[block];
                service = local_miss_cost;
            }
            if (has_migrep && home == node)
                CTR_BUMP();
            /* inlined fill + eviction notification (local tail) */
            int64_t old = cb_p[idx];
            cb_p[idx] = block;
            cv_p[idx] = version;
            if (old >= 0 && old != block) {
                pp[PP_EVICT * P + p] += 1;
                cd_p[idx] = (uint8_t)is_write;
                L1_EVICT_NOTE();
            } else {
                cd_p[idx] = (uint8_t)is_write;
            }
            pp[PP_ACC_CONT * P + p] += wait;
            pp[PP_ACC_LOCAL * P + p] += service;
            pp[PP_ACC_FAULT * P + p] += fault;
            pp[PP_CLOCK * P + p] = clock + wait + service + fault;
            continue;
        }

        /* ---- remote lane ---- */
        if (has_migrep) {
            if (is_write && vm_replicated[page])
                BAIL(RC_BAIL_COLLAPSE);   /* collapse via the protocol */
            if (!is_write && mode_c == replica_code) {
                /* read served by a local replica */
                nn[NN_NS_LOCAL * N + node] += 1;
                dir_tracked[block] = 1;
                dir_sharers[block] |= (int64_t)1 << node;
                version = dir_versions[block];
                service = local_miss_cost;
                int64_t old = cb_p[idx];
                if (old >= 0 && old != block) {
                    pp[PP_EVICT * P + p] += 1;
                    cb_p[idx] = block;
                    cv_p[idx] = version;
                    cd_p[idx] = (uint8_t)is_write;
                    L1_EVICT_NOTE();
                } else {
                    cb_p[idx] = block;
                    cv_p[idx] = version;
                    cd_p[idx] = (uint8_t)is_write;
                }
                pp[PP_ACC_CONT * P + p] += wait;
                pp[PP_ACC_LOCAL * P + p] += service;
                pp[PP_ACC_FAULT * P + p] += fault;
                pp[PP_CLOCK * P + p] = clock + wait + service + fault;
                continue;
            }
        }

        /* ---- page-cache probe lane ---- */
        if (has_pagecache) {
            if (pc_res[node][page]) {
                /* transcription of RNUMAProtocol._scoma_fetch on the
                 * flat page-cache arrays (block tags live at the global
                 * block index); residency only ever changes in Python */
                pc_clock[node][0] += 1;
                pc_stamp[node][page] = pc_clock[node][0];
                version = dir_versions[block];
                int64_t* pcv_n = pc_version[node];
                uint8_t* pcd_n = pc_dirty[node];
                int64_t stored = pcv_n[block];
                int64_t pc_hit = 0;
                if (stored >= 0) {
                    if (stored >= version) {
                        pc_hit = 1;
                    } else {
                        /* stale block: invalidate and refetch below */
                        pcv_n[block] = -1;
                        pc_nvalid[node][page] -= 1;
                        if (pcd_n[block]) {
                            pcd_n[block] = 0;
                            pc_ndirty[node][page] -= 1;
                        }
                        nn[NN_PCS_INVAL * N + node] += 1;
                    }
                }
                int64_t remote;
                if (pc_hit) {
                    nn[NN_PCS_HITS * N + node] += 1;
                    nn[NN_NS_PCHITS * N + node] += 1;
                    remote = 0;
                    if (is_write) {
                        DIR_WRITE();
                        /* inlined PageCache.write_block (tag is valid) */
                        if (version > stored)
                            pcv_n[block] = version;
                        if (!pcd_n[block]) {
                            pcd_n[block] = 1;
                            pc_ndirty[node][page] += 1;
                        }
                        service = local_miss_cost + extra;
                    } else {
                        service = local_miss_cost;
                    }
                } else {
                    nn[NN_PCS_MISSES * N + node] += 1;
                    remote = 1;
                    /* inlined _remote_fill: classification, traffic,
                     * NIC contention and the directory fill */
                    int64_t reason = departed[node][block];
                    if (reason)
                        departed[node][block] = 0;
                    nn[NN_NS_REMOTE * N + node] += 1;
                    nn[(NN_NS_CAUSE0 + reason) * N + node] += 1;
                    if (is_write) {
                        msg_delta[write_i] += 1;
                        msg_delta[data_i] += 1;
                        mut[MUT_BYTES] += sz_write_pair;
                    } else {
                        msg_delta[read_i] += 1;
                        msg_delta[data_i] += 1;
                        mut[MUT_BYTES] += sz_read_pair;
                    }
                    NIC_ROUND_TRIP();
                    if (is_write) {
                        DIR_WRITE();
                    } else {
                        dir_tracked[block] = 1;
                        dir_sharers[block] |= (int64_t)1 << node;
                        version = dir_versions[block];
                        extra = 0;
                    }
                    service = remote_miss_cost + contention + extra;
                    /* inlined PageCache.fill_block */
                    if (pcv_n[block] < 0)
                        pc_nvalid[node][page] += 1;
                    pcv_n[block] = version;
                    if (is_write && !pcd_n[block]) {
                        pcd_n[block] = 1;
                        pc_ndirty[node][page] += 1;
                    }
                    pc_fills[node][page] += 1;
                    nn[NN_PCS_FILLS * N + node] += 1;
                    /* requester-side R-NUMA miss total; the hybrid also
                     * bumps the home-side MigRep counters (its policy
                     * evaluation returns NONE for resident pages) */
                    pg_totals[page] += 1;
                    if (has_migrep)
                        CTR_BUMP();
                }
                /* generic tail (page-cache lane copy) */
                int64_t old = cb_p[idx];
                if (old >= 0 && old != block) {
                    pp[PP_EVICT * P + p] += 1;
                    cb_p[idx] = block;
                    cv_p[idx] = version;
                    cd_p[idx] = (uint8_t)is_write;
                    L1_EVICT_NOTE();
                } else {
                    cb_p[idx] = block;
                    cv_p[idx] = version;
                    cd_p[idx] = (uint8_t)is_write;
                }
                pp[PP_ACC_CONT * P + p] += wait;
                if (remote)
                    pp[PP_ACC_REMOTE * P + p] += service;
                else
                    pp[PP_ACC_LOCAL * P + p] += service;
                pp[PP_ACC_FAULT * P + p] += fault;
                pp[PP_CLOCK * P + p] = clock + wait + service + fault;
                continue;
            }
            if (scoma_alloc) {
                /* S-COMA allocates a local frame on the first remote
                 * miss; allocation and service both live in Python —
                 * bail before any accounting so the driver can run
                 * _service_remote_page */
                BAIL(RC_BAIL_PAGECACHE);
            }
        }

        /* inlined CC-NUMA block-cache / remote-fetch lane */
        version = dir_versions[block];
        int64_t bidx = block % bc_cap;
        int64_t* bb = bc_blocks[node];
        int64_t* bv = bc_versions[node];
        uint8_t* bd = bc_dirty[node];
        int64_t hit = 0;
        if (bb[bidx] == block) {
            if (bv[bidx] >= version) {
                hit = 1;
            } else {
                bb[bidx] = -1;
                bd[bidx] = 0;
                nn[NN_BCS_INVAL * N + node] += 1;
            }
        }
        int64_t remote;
        if (hit) {
            nn[NN_BCS_HITS * N + node] += 1;
            nn[NN_NS_BCHITS * N + node] += 1;
            remote = 0;
            if (is_write) {
                DIR_WRITE();
                if (version > bv[bidx])
                    bv[bidx] = version;
                bd[bidx] = 1;
                service = local_miss_cost + extra + bc_penalty;
            } else {
                service = local_miss_cost + bc_penalty;
            }
        } else {
            nn[NN_BCS_MISSES * N + node] += 1;
            remote = 1;
            /* miss classification (reason doubles as counter index) */
            int64_t reason = departed[node][block];
            if (reason)
                departed[node][block] = 0;
            nn[NN_NS_REMOTE * N + node] += 1;
            nn[(NN_NS_CAUSE0 + reason) * N + node] += 1;
            /* request/reply traffic + NIC contention */
            if (is_write) {
                msg_delta[write_i] += 1;
                msg_delta[data_i] += 1;
                mut[MUT_BYTES] += sz_write_pair;
            } else {
                msg_delta[read_i] += 1;
                msg_delta[data_i] += 1;
                mut[MUT_BYTES] += sz_read_pair;
            }
            NIC_ROUND_TRIP();
            /* directory side of the fill */
            if (is_write) {
                DIR_WRITE();
            } else {
                dir_tracked[block] = 1;
                dir_sharers[block] |= (int64_t)1 << node;
                version = dir_versions[block];
                extra = 0;
            }
            service = remote_miss_cost + contention + extra + bc_penalty;
            /* inlined BlockCache.fill */
            int64_t old = bb[bidx];
            int64_t old_dirty = bd[bidx];
            bb[bidx] = block;
            bv[bidx] = version;
            bd[bidx] = (uint8_t)is_write;
            if (old >= 0 && old != block) {
                nn[NN_BCS_EVICT * N + node] += 1;
                departed[node][old] = (uint8_t)dep_evicted;
                if (dir_tracked[old]) {
                    dir_sharers[old] &= ~((int64_t)1 << node);
                    if (dir_owner[old] == node) {
                        dir_owner[old] = -1;
                        mut[MUT_DIR_WB] += 1;
                    }
                }
                if (old_dirty) {
                    int64_t vpage = old / bpp;
                    int64_t vh = vm_home[vpage];
                    if (vh >= 0 && vh != node) {
                        msg_delta[wb_i] += 1;
                        mut[MUT_BYTES] += sz_wb;
                    }
                }
            }
            int64_t reloc = 0, eval_mask = 0;
            if (has_rnuma) {
                /* requester-side R-NUMA accounting: the per-page miss
                 * total always, the refetch counter only when this fetch
                 * re-acquired a block lost to capacity replacement */
                pg_totals[page] += 1;
                if (reason == dep_evicted) {
                    int64_t* rfn = rf_counts[node];
                    int64_t rfc = rfn[page] + 1;
                    rfn[page] = rfc;
                    nn[NN_RF_TOTAL * N + node] += 1;
                    if (rn_static) {
                        if ((rn_delay == 0 || pg_totals[page] >= rn_delay)
                                && rfc > rn_threshold)
                            reloc = 1;
                    } else {
                        eval_mask = 1;
                    }
                }
            }
            if (has_migrep) {
                /* home-side counter bump + policy decision */
                CTR_BUMP();
                if (!reloc) {
                    if (mr_static && !eval_mask) {
                        if (((vm_replica_mask[page] >> node) & 1) == 0) {
                            int64_t cbase = page * N;
                            int64_t decided = 0;
                            if (mr_replication) {
                                int64_t remote_writes = -ctr_write[cbase + home];
                                for (int64_t nx = 0; nx < N; nx++)
                                    remote_writes += ctr_write[cbase + nx];
                                if (remote_writes == 0
                                        && ctr_read[cbase + node] > mr_threshold)
                                    decided = RC_BAIL_REPLICATE;
                            }
                            if (!decided && mr_migration) {
                                int64_t req_m = ctr_read[cbase + node]
                                                + ctr_write[cbase + node];
                                int64_t home_m = ctr_read[cbase + home]
                                                 + ctr_write[cbase + home];
                                if (req_m - home_m > mr_threshold)
                                    decided = RC_BAIL_MIGRATE;
                            }
                            if (decided) {
                                /* fill is complete; only the page op
                                 * itself needs the MigrationEngine */
                                out[OUT_SERVICE] = service;
                                out[OUT_VERSION] = version;
                                BAIL(decided);
                            }
                        }
                    } else if (mr_hyst && !eval_mask) {
                        /* inlined HysteresisMigRepPolicy.evaluate on the
                         * shared dense score rows (requester != home on
                         * this path; zero rows read identically to rows
                         * the Python side has never touched) */
                        if (((vm_replica_mask[page] >> node) & 1) == 0) {
                            int64_t cbase = page * N;
                            for (int64_t nx = 0; nx < N; nx++)
                                hy_scores[cbase + nx] *= hy_decay;
                            hy_scores[cbase + node] += 1.0;
                            int64_t home_total = ctr_read[cbase + home]
                                                 + ctr_write[cbase + home];
                            int64_t hdelta = home_total - hy_seen[page];
                            if (hdelta != 0) {
                                if (hdelta < 0)
                                    hy_scores[cbase + home] += (double)home_total;
                                else
                                    hy_scores[cbase + home] += (double)hdelta;
                                hy_seen[page] = home_total;
                            }
                            int64_t decided = 0;
                            if (mr_replication) {
                                int64_t remote_writes = -ctr_write[cbase + home];
                                for (int64_t nx = 0; nx < N; nx++)
                                    remote_writes += ctr_write[cbase + nx];
                                if (remote_writes == 0
                                        && hy_scores[cbase + node] > hy_threshold)
                                    decided = RC_BAIL_REPLICATE;
                            }
                            if (!decided && mr_migration) {
                                if (hy_scores[cbase + node]
                                        - hy_scores[cbase + home] > hy_threshold)
                                    decided = RC_BAIL_MIGRATE;
                            }
                            if (decided) {
                                /* the policy forgets the page before the
                                 * fired decision runs; the page op itself
                                 * needs the MigrationEngine */
                                for (int64_t nx = 0; nx < N; nx++)
                                    hy_scores[cbase + nx] = 0.0;
                                hy_seen[page] = 0;
                                out[OUT_SERVICE] = service;
                                out[OUT_VERSION] = version;
                                BAIL(decided);
                            }
                        }
                    } else if (hybrid
                               || ((vm_replica_mask[page] >> node) & 1) == 0) {
                        /* adaptive MigRep policy — or a static one in
                         * the hybrid with an adaptive R-NUMA evaluation
                         * pending (a relocation would change its
                         * answer): defer to the Python evaluation */
                        eval_mask |= 2;
                    }
                }
            }
            if (reloc) {
                /* fired static R-NUMA decision: the fill is complete,
                 * the relocation itself runs in the RelocationEngine */
                out[OUT_SERVICE] = service;
                out[OUT_VERSION] = version;
                BAIL(RC_BAIL_RELOCATE);
            }
            if (eval_mask) {
                /* adaptive evaluation point: the fill is accounted;
                 * Python evaluates the decisions named by the mask
                 * (1 = R-NUMA, 2 = MigRep) */
                out[OUT_SERVICE] = service;
                out[OUT_VERSION] = version;
                out[OUT_EVAL] = eval_mask;
                BAIL(RC_BAIL_DECIDE);
            }
        }

        /* generic tail: L1 fill + eviction notification */
        int64_t old = cb_p[idx];
        if (old >= 0 && old != block) {
            pp[PP_EVICT * P + p] += 1;
            cb_p[idx] = block;
            cv_p[idx] = version;
            cd_p[idx] = (uint8_t)is_write;
            L1_EVICT_NOTE();
        } else {
            cb_p[idx] = block;
            cv_p[idx] = version;
            cd_p[idx] = (uint8_t)is_write;
        }
        pp[PP_ACC_CONT * P + p] += wait;
        if (remote)
            pp[PP_ACC_REMOTE * P + p] += service;
        else
            pp[PP_ACC_LOCAL * P + p] += service;
        pp[PP_ACC_FAULT * P + p] += fault;
        pp[PP_CLOCK * P + p] = clock + wait + service + fault;
    }

    mut[MUT_K] = k;
    return RC_DONE;
}
