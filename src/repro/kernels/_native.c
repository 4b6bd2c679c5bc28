/* Native hot-path kernels for the partitioning data plane.
 *
 * Nine primitives, mirroring the paper's inner loops (Section 4), each
 * called straight from its one dispatch function in repro.kernels:
 *
 *   1. hash + radix histogram — murmur3 finalizer (Code 3) or radix
 *      bits, fused with the per-partition counts and the optional
 *      per-(partition, lane) histogram the FPGA cache-line accounting
 *      needs;
 *   2. stable scatter — sequential cursor scatter, byte-identical to a
 *      stable sort by partition index (or, grouped, by a partition →
 *      group map: the router's scatter by shard);
 *   3. SWWC scatter   — the same scatter driven through cache-line
 *      sized software write-combine buffers (Code 2): tuples
 *      accumulate per partition and a full buffer is flushed with one
 *      memcpy, so the random-write working set is the buffer pool, not
 *      the whole output;
 *   4. batch partition — 1 and 2 run per request of a batch, straight
 *      from each request's own columns into its slice of one shared
 *      output, with its counts and lines: one call (one GIL release);
 *   5 + 6. bucket-chaining join build and probe;
 *   7. fused join + aggregate — 5 and 6 per partition of a range, with
 *      an exact int64 aggregate per matched build tuple: the consumer
 *      side of the hybrid join (Section 5) in one call per range;
 *   8. group sort — stable LSD radix sort of group rows by key that
 *      folds equal keys (the final merge of every grouped result);
 *   9. run copy — partition-ordered pieces into partition-major
 *      columns, one memcpy per partition run (the gateway stitch).
 *
 * Deliberately plain C99 with no Python.h: the module is loaded
 * through ctypes, which drops the GIL for the duration of every call —
 * that is what makes the thread backend of the execution engine scale
 * instead of serialising on NumPy dispatch.  Every partitioning kernel
 * is instantiated for the three partition-index dtypes of
 * repro.kernels.parts_dtype (uint8 / uint16 / int64); the Python
 * prototypes come from the one signature table in kernels/native.py.
 *
 * The outputs are bit-exact with the NumPy reference implementations
 * (pinned by tests/test_kernels.py): same murmur constants, same
 * wrap-around arithmetic, same stable visit order.
 */

#include <stdint.h>
#include <string.h>
#include <stdlib.h>
#include <pthread.h>

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_PREFETCH_W(addr) __builtin_prefetch((addr), 1, 0)
#else
#define REPRO_PREFETCH_W(addr) ((void)0)
#endif

/* Scatter lookahead: far enough to cover DRAM latency, near enough
 * that cursor[] has advanced at most SCATTER_PF_DIST slots since the
 * prefetch address was computed (same cache line in practice). */
#define SCATTER_PF_DIST 24

#define MURMUR32_C1 0x85ebca6bu
#define MURMUR32_C2 0xc2b2ae35u

static inline uint32_t murmur32(uint32_t h)
{
    h ^= h >> 16;
    h *= MURMUR32_C1;
    h ^= h >> 13;
    h *= MURMUR32_C2;
    h ^= h >> 16;
    return h;
}

/* ------------------------------------------------------------------ */
/* 1: fused hash + histogram (+ optional lane histogram)               */
/*                                                                     */
/* parts[i] = (use_hash ? murmur32(keys[i]) : keys[i]) & (P - 1)       */
/* hist[p] += 1; lane_hist[p * lanes + (global_offset + i) % lanes]    */
/* (lane accounting only when lanes > 0; lanes is a power of two).     */
/* ------------------------------------------------------------------ */

#define DEFINE_HASH_HIST(SUFFIX, PART_T)                                   \
    void repro_hash_hist_##SUFFIX(                                         \
        const uint32_t *keys, int64_t n, int64_t num_partitions,           \
        int use_hash, int64_t lanes, int64_t global_offset,                \
        PART_T *parts, int64_t *hist, int64_t *lane_hist)                  \
    {                                                                      \
        const uint32_t mask = (uint32_t)(num_partitions - 1);              \
        int64_t i;                                                         \
        if (lanes > 0) {                                                   \
            const int64_t lane_mask = lanes - 1;                           \
            for (i = 0; i < n; i++) {                                      \
                uint32_t h = keys[i];                                      \
                if (use_hash) h = murmur32(h);                             \
                const uint32_t p = h & mask;                               \
                parts[i] = (PART_T)p;                                      \
                hist[p]++;                                                 \
                lane_hist[(int64_t)p * lanes +                             \
                          ((global_offset + i) & lane_mask)]++;            \
            }                                                              \
        } else if (use_hash) {                                             \
            for (i = 0; i < n; i++) {                                      \
                const uint32_t p = murmur32(keys[i]) & mask;               \
                parts[i] = (PART_T)p;                                      \
                hist[p]++;                                                 \
            }                                                              \
        } else {                                                           \
            for (i = 0; i < n; i++) {                                      \
                const uint32_t p = keys[i] & mask;                         \
                parts[i] = (PART_T)p;                                      \
                hist[p]++;                                                 \
            }                                                              \
        }                                                                  \
    }

DEFINE_HASH_HIST(u8, uint8_t)
DEFINE_HASH_HIST(u16, uint16_t)
DEFINE_HASH_HIST(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 2: stable cursor scatter                                            */
/*                                                                     */
/* cursor[] starts as the morsel's per-partition destination bases and */
/* is advanced in place; the sequential visit order makes the scatter  */
/* stable, i.e. byte-identical to a stable sort by partition index.    */
/* The grouped variant routes partition p to cursor[groups[p]] (e.g.   */
/* the shard serving p): the bytes of a stable sort by groups[parts],  */
/* with no per-tuple group column.                                     */
/* ------------------------------------------------------------------ */

/* The cursor slot of tuple j: its partition, or its partition's group. */
#define PART_SLOT(j) parts[j]
#define GROUP_SLOT(j) groups[parts[j]]

/* The loop body, over the cursor slot of tuple i and its payload: the
 * payload column, or generated record ids (the circuit's VRIDs,
 * Section 4.5).                                                       */
#define REPRO_SCATTER_LOOP(SLOT, PAYLOAD)                                  \
    const int64_t pf_end = n > SCATTER_PF_DIST ? n - SCATTER_PF_DIST : 0;  \
    int64_t i;                                                             \
    for (i = 0; i < pf_end; i++) {                                         \
        const int64_t a = cursor[SLOT(i + SCATTER_PF_DIST)];               \
        REPRO_PREFETCH_W(out_keys + a);                                    \
        REPRO_PREFETCH_W(out_payloads + a);                                \
        const int64_t d = cursor[SLOT(i)]++;                               \
        out_keys[d] = keys[i];                                             \
        out_payloads[d] = (PAYLOAD);                                       \
    }                                                                      \
    for (; i < n; i++) {                                                   \
        const int64_t d = cursor[SLOT(i)]++;                               \
        out_keys[d] = keys[i];                                             \
        out_payloads[d] = (PAYLOAD);                                       \
    }

#define DEFINE_SCATTER(SUFFIX, PART_T)                                     \
    void repro_scatter_##SUFFIX(                                           \
        const uint32_t *keys, const uint32_t *payloads,                    \
        const PART_T *parts, int64_t n, int64_t *cursor,                   \
        uint32_t *out_keys, uint32_t *out_payloads)                        \
    {                                                                      \
        REPRO_SCATTER_LOOP(PART_SLOT, payloads[i])                         \
    }                                                                      \
                                                                           \
    void repro_scatter_grouped_##SUFFIX(                                   \
        const uint32_t *keys, const uint32_t *payloads,                    \
        const PART_T *parts, const int64_t *groups, int64_t n,             \
        int64_t *cursor, uint32_t *out_keys, uint32_t *out_payloads)       \
    {                                                                      \
        REPRO_SCATTER_LOOP(GROUP_SLOT, payloads[i])                        \
    }                                                                      \
                                                                           \
    static void repro_scatter_ids_##SUFFIX(                                \
        const uint32_t *keys, const PART_T *parts, int64_t n,              \
        int64_t first_id, int64_t *cursor, uint32_t *out_keys,             \
        uint32_t *out_payloads)                                            \
    {                                                                      \
        REPRO_SCATTER_LOOP(PART_SLOT, (uint32_t)(first_id + i))            \
    }

DEFINE_SCATTER(u8, uint8_t)
DEFINE_SCATTER(u16, uint16_t)
DEFINE_SCATTER(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 3: SWWC buffered scatter (Code 2)                                   */
/*                                                                     */
/* Key/payload pairs accumulate in per-partition buffers of            */
/* buffer_tuples entries; a full buffer is drained with two memcpys    */
/* (the software stand-in for one non-temporal cache-line store).      */
/* Output is byte-identical to repro_scatter_*: the buffers preserve   */
/* per-partition arrival order.  Returns 0, or -1 if the buffer pool   */
/* allocation failed (caller falls back to the plain scatter).         */
/* ------------------------------------------------------------------ */

#define DEFINE_SWWC_SCATTER(SUFFIX, PART_T)                                \
    int repro_swwc_scatter_##SUFFIX(                                       \
        const uint32_t *keys, const uint32_t *payloads,                    \
        const PART_T *parts, int64_t n, int64_t num_partitions,            \
        int64_t buffer_tuples, int64_t *cursor,                            \
        uint32_t *out_keys, uint32_t *out_payloads)                        \
    {                                                                      \
        uint32_t *buf_keys, *buf_pays;                                     \
        int64_t *fill;                                                     \
        int64_t i, p;                                                      \
        if (buffer_tuples < 1) return -1;                                  \
        buf_keys = (uint32_t *)malloc(                                     \
            (size_t)num_partitions * (size_t)buffer_tuples * 4);           \
        buf_pays = (uint32_t *)malloc(                                     \
            (size_t)num_partitions * (size_t)buffer_tuples * 4);           \
        fill = (int64_t *)calloc((size_t)num_partitions, 8);               \
        if (!buf_keys || !buf_pays || !fill) {                             \
            free(buf_keys); free(buf_pays); free(fill);                    \
            return -1;                                                     \
        }                                                                  \
        for (i = 0; i < n; i++) {                                          \
            const int64_t part = (int64_t)parts[i];                        \
            const int64_t base = part * buffer_tuples;                     \
            int64_t f = fill[part];                                        \
            buf_keys[base + f] = keys[i];                                  \
            buf_pays[base + f] = payloads[i];                              \
            if (++f == buffer_tuples) {                                    \
                const int64_t d = cursor[part];                            \
                memcpy(out_keys + d, buf_keys + base,                      \
                       (size_t)buffer_tuples * 4);                         \
                memcpy(out_payloads + d, buf_pays + base,                  \
                       (size_t)buffer_tuples * 4);                         \
                cursor[part] = d + buffer_tuples;                          \
                f = 0;                                                     \
            }                                                              \
            fill[part] = f;                                                \
        }                                                                  \
        for (p = 0; p < num_partitions; p++) {                             \
            const int64_t f = fill[p];                                     \
            if (f > 0) {                                                   \
                const int64_t d = cursor[p];                               \
                memcpy(out_keys + d, buf_keys + p * buffer_tuples,         \
                       (size_t)f * 4);                                     \
                memcpy(out_payloads + d, buf_pays + p * buffer_tuples,     \
                       (size_t)f * 4);                                     \
                cursor[p] = d + f;                                         \
            }                                                              \
        }                                                                  \
        free(buf_keys); free(buf_pays); free(fill);                        \
        return 0;                                                          \
    }

DEFINE_SWWC_SCATTER(u8, uint8_t)
DEFINE_SWWC_SCATTER(u16, uint16_t)
DEFINE_SWWC_SCATTER(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 3b: multi-threaded SWWC scatter                                     */
/*                                                                     */
/* Partition-parallel flush: the fan-out is split into one contiguous  */
/* partition range per thread; every thread scans the whole input but  */
/* buffers and flushes only the partitions it owns.  Each cursor slot  */
/* therefore has exactly one writer and the per-partition visit order  */
/* is the input order — byte-identical to the serial SWWC scatter (and */
/* hence to the plain stable scatter).  The scan is the cheap          */
/* sequential part; the random cache-line flushes, which are the SWWC  */
/* bottleneck, are what actually parallelise.                          */
/*                                                                     */
/* Failure handling keeps the entry point infallible: a worker whose   */
/* buffer pool allocation fails degrades itself to a plain cursor      */
/* scatter over its range, and a failed pthread_create runs that job   */
/* inline on the calling thread.  Always returns 0.                    */
/* ------------------------------------------------------------------ */

#define DEFINE_SWWC_MT(SUFFIX, PART_T)                                     \
    typedef struct {                                                       \
        const uint32_t *keys;                                              \
        const uint32_t *payloads;                                          \
        const PART_T *parts;                                               \
        int64_t n;                                                         \
        int64_t buffer_tuples;                                             \
        int64_t p_lo;                                                      \
        int64_t p_hi;                                                      \
        int64_t *cursor;                                                   \
        uint32_t *out_keys;                                                \
        uint32_t *out_payloads;                                            \
    } repro_swwc_job_##SUFFIX;                                             \
                                                                           \
    static void repro_swwc_range_plain_##SUFFIX(                           \
        const repro_swwc_job_##SUFFIX *job)                                \
    {                                                                      \
        int64_t i;                                                         \
        for (i = 0; i < job->n; i++) {                                     \
            const int64_t part = (int64_t)job->parts[i];                   \
            if (part < job->p_lo || part >= job->p_hi) continue;           \
            const int64_t d = job->cursor[part]++;                         \
            job->out_keys[d] = job->keys[i];                               \
            job->out_payloads[d] = job->payloads[i];                       \
        }                                                                  \
    }                                                                      \
                                                                           \
    static void *repro_swwc_worker_##SUFFIX(void *arg)                     \
    {                                                                      \
        repro_swwc_job_##SUFFIX *job = (repro_swwc_job_##SUFFIX *)arg;     \
        const int64_t span = job->p_hi - job->p_lo;                        \
        const int64_t bt = job->buffer_tuples;                             \
        uint32_t *buf_keys, *buf_pays;                                     \
        int64_t *fill;                                                     \
        int64_t i, p;                                                      \
        if (span <= 0) return NULL;                                        \
        buf_keys = (uint32_t *)malloc((size_t)span * (size_t)bt * 4);      \
        buf_pays = (uint32_t *)malloc((size_t)span * (size_t)bt * 4);      \
        fill = (int64_t *)calloc((size_t)span, 8);                         \
        if (!buf_keys || !buf_pays || !fill) {                             \
            free(buf_keys); free(buf_pays); free(fill);                    \
            repro_swwc_range_plain_##SUFFIX(job);                          \
            return NULL;                                                   \
        }                                                                  \
        for (i = 0; i < job->n; i++) {                                     \
            const int64_t part = (int64_t)job->parts[i];                   \
            int64_t local, base, f;                                        \
            if (part < job->p_lo || part >= job->p_hi) continue;           \
            local = part - job->p_lo;                                      \
            base = local * bt;                                             \
            f = fill[local];                                               \
            buf_keys[base + f] = job->keys[i];                             \
            buf_pays[base + f] = job->payloads[i];                         \
            if (++f == bt) {                                               \
                const int64_t d = job->cursor[part];                       \
                memcpy(job->out_keys + d, buf_keys + base, (size_t)bt * 4);\
                memcpy(job->out_payloads + d, buf_pays + base,             \
                       (size_t)bt * 4);                                    \
                job->cursor[part] = d + bt;                                \
                f = 0;                                                     \
            }                                                              \
            fill[local] = f;                                               \
        }                                                                  \
        for (p = 0; p < span; p++) {                                       \
            const int64_t f = fill[p];                                     \
            if (f > 0) {                                                   \
                const int64_t part = job->p_lo + p;                        \
                const int64_t d = job->cursor[part];                       \
                memcpy(job->out_keys + d, buf_keys + p * bt,               \
                       (size_t)f * 4);                                     \
                memcpy(job->out_payloads + d, buf_pays + p * bt,           \
                       (size_t)f * 4);                                     \
                job->cursor[part] = d + f;                                 \
            }                                                              \
        }                                                                  \
        free(buf_keys); free(buf_pays); free(fill);                        \
        return NULL;                                                       \
    }                                                                      \
                                                                           \
    int repro_swwc_scatter_mt_##SUFFIX(                                    \
        const uint32_t *keys, const uint32_t *payloads,                    \
        const PART_T *parts, int64_t n, int64_t num_partitions,            \
        int64_t buffer_tuples, int64_t threads, int64_t *cursor,           \
        uint32_t *out_keys, uint32_t *out_payloads)                        \
    {                                                                      \
        repro_swwc_job_##SUFFIX jobs[64];                                  \
        pthread_t tids[64];                                                \
        int started[64];                                                   \
        int64_t t, lo;                                                     \
        if (buffer_tuples < 1) return -1;                                  \
        if (threads > num_partitions) threads = num_partitions;            \
        if (threads > 64) threads = 64;                                    \
        if (threads <= 1)                                                  \
            return repro_swwc_scatter_##SUFFIX(                            \
                keys, payloads, parts, n, num_partitions, buffer_tuples,   \
                cursor, out_keys, out_payloads);                           \
        lo = 0;                                                            \
        for (t = 0; t < threads; t++) {                                    \
            const int64_t span = num_partitions / threads +                \
                                 (t < num_partitions % threads ? 1 : 0);   \
            jobs[t].keys = keys;                                           \
            jobs[t].payloads = payloads;                                   \
            jobs[t].parts = parts;                                         \
            jobs[t].n = n;                                                 \
            jobs[t].buffer_tuples = buffer_tuples;                         \
            jobs[t].p_lo = lo;                                             \
            jobs[t].p_hi = lo + span;                                      \
            jobs[t].cursor = cursor;                                       \
            jobs[t].out_keys = out_keys;                                   \
            jobs[t].out_payloads = out_payloads;                           \
            lo += span;                                                    \
        }                                                                  \
        for (t = 0; t < threads; t++) {                                    \
            started[t] = pthread_create(&tids[t], NULL,                    \
                                        repro_swwc_worker_##SUFFIX,        \
                                        &jobs[t]) == 0;                    \
            if (!started[t])                                               \
                (void)repro_swwc_worker_##SUFFIX(&jobs[t]);                \
        }                                                                  \
        for (t = 0; t < threads; t++)                                      \
            if (started[t]) pthread_join(tids[t], NULL);                   \
        return 0;                                                          \
    }

DEFINE_SWWC_MT(u8, uint8_t)
DEFINE_SWWC_MT(u16, uint16_t)
DEFINE_SWWC_MT(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 4: fused batch partition                                            */
/*                                                                     */
/* For each request r of the batch, in order: primitive 1 on its keys  */
/* (cursor[] as the histogram, a tuple's lane being (offset + its      */
/* index within the request) mod lanes); one pass over the lane        */
/* histogram for lines[r][p] (a line holds one tuple per lane and each */
/* lane flushes its own partial line: sum over lanes of ceil(count /   */
/* lanes)), counts[r][p] and the cursors (an exclusive prefix sum from */
/* the request's first output slot); and primitive 2.  Request r's     */
/* tuples land in out[sum(sizes[:r]) : sum(sizes[:r+1])], stable-      */
/* sorted by partition: the bytes of hash_hist + scatter on that       */
/* request alone.  The inputs are only read.                           */
/*                                                                     */
/* Few, wide arguments, because taking an ndarray's address costs the  */
/* caller about as much as partitioning 200 tuples: table[] holds      */
/* batch sizes, key-column addresses, payload-column addresses (0:     */
/* generated record ids, offset + i, the circuit's VRIDs, Section      */
/* 4.5) and offsets (a piece request's global first position, -1 for   */
/* a whole run at 0); out[] is the key column, then the payload        */
/* column; grid[] is counts, then lines (batch x P each); lane_acc[],  */
/* zeroed by the caller, is P cursors, one P x lanes lane scratch (a   */
/* whole run's, cleared after it), then one P x lanes lane row per     */
/* piece request.  parts[] holds max(sizes) entries; lanes and P are   */
/* powers of two.                                                      */
/* ------------------------------------------------------------------ */

#define DEFINE_PARTITION_BATCH(SUFFIX, PART_T)                             \
    void repro_partition_batch_##SUFFIX(                                   \
        const intptr_t *table, int64_t batch, int64_t num_partitions,      \
        int use_hash, int64_t lanes, PART_T *parts, uint32_t *out,         \
        int64_t *grid, int64_t *lane_acc)                                  \
    {                                                                      \
        const int64_t lane_mask = lanes - 1;                               \
        const int64_t row_slots = num_partitions * lanes;                  \
        int64_t *counts = grid;                                            \
        int64_t *lines = grid + batch * num_partitions;                    \
        int64_t *cursor = lane_acc;                                        \
        int64_t *scratch = cursor + num_partitions;                        \
        int64_t *piece_rows = scratch + row_slots;                         \
        uint32_t *out_payloads = out;                                      \
        int64_t base = 0, r, p, l;                                         \
        const int lane_shift = __builtin_ctzll((unsigned long long)lanes); \
        for (r = 0; r < batch; r++) out_payloads += table[r];              \
        for (r = 0; r < batch; r++) {                                      \
            const int64_t n = table[r];                                    \
            const uint32_t *keys = (const uint32_t *)table[batch + r];     \
            const uint32_t *payloads =                                     \
                (const uint32_t *)table[2 * batch + r];                    \
            const int64_t piece = table[3 * batch + r] >= 0;               \
            const int64_t offset = piece ? table[3 * batch + r] : 0;       \
            int64_t *lane_hist = piece ? piece_rows : scratch;             \
            memset(cursor, 0, (size_t)num_partitions * sizeof(int64_t));   \
            repro_hash_hist_##SUFFIX(keys, n, num_partitions, use_hash,    \
                                     lanes, offset, parts, cursor,         \
                                     lane_hist);                           \
            for (p = 0; p < num_partitions; p++) {                         \
                const int64_t *slot = lane_hist + p * lanes;               \
                int64_t line_sum = 0;                                      \
                for (l = 0; l < lanes; l++)                                \
                    line_sum += (slot[l] + lane_mask) >> lane_shift;       \
                lines[p] = line_sum;                                       \
                counts[p] = cursor[p];                                     \
                cursor[p] = base;                                          \
                base += counts[p];                                         \
            }                                                              \
            if (piece)                                                     \
                piece_rows += row_slots;                                   \
            else                                                           \
                memset(scratch, 0, (size_t)row_slots * sizeof(int64_t));  \
            counts += num_partitions;                                      \
            lines += num_partitions;                                       \
            if (payloads)                                                  \
                repro_scatter_##SUFFIX(keys, payloads, parts, n, cursor,   \
                                       out, out_payloads);                 \
            else                                                           \
                repro_scatter_ids_##SUFFIX(keys, parts, n, offset, cursor, \
                                           out, out_payloads);             \
        }                                                                  \
    }

DEFINE_PARTITION_BATCH(u8, uint8_t)
DEFINE_PARTITION_BATCH(u16, uint16_t)
DEFINE_PARTITION_BATCH(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 9: run copy                                                         */
/*                                                                     */
/* Pieces that are already partition-ordered (a partitioned chunk, as  */
/* a CHUNK frame carries it) are written into partition-major output   */
/* columns one run at a time: partition p of piece b is counts[b*P+p]  */
/* consecutive tuples of its columns, copied with one memcpy per       */
/* column to dest[b*P+p].  table[] holds batch key-column addresses,   */
/* then batch payload-column addresses; counts[] and dest[] are        */
/* batch x num_partitions.  The inputs are only read.                  */
/* ------------------------------------------------------------------ */

void repro_copy_runs(const intptr_t *table, int64_t batch,
                     int64_t num_partitions, const int64_t *counts,
                     const int64_t *dest, uint32_t *out_keys,
                     uint32_t *out_payloads)
{
    int64_t b, p;
    for (b = 0; b < batch; b++) {
        const uint32_t *keys = (const uint32_t *)table[b];
        const uint32_t *payloads = (const uint32_t *)table[batch + b];
        const int64_t *row = counts + b * num_partitions;
        const int64_t *at = dest + b * num_partitions;
        int64_t src = 0;
        for (p = 0; p < num_partitions; p++) {
            const int64_t c = row[p];
            if (c == 0) continue;
            memcpy(out_keys + at[p], keys + src, (size_t)c * 4);
            memcpy(out_payloads + at[p], payloads + src, (size_t)c * 4);
            src += c;
        }
    }
}

/* ------------------------------------------------------------------ */
/* 5 + 6: bucket-chaining hash join: build + probe (Section 3.3)       */
/* ------------------------------------------------------------------ */

/* In-table bucket: the HIGH bits of the murmur hash.  The radix join
 * already consumed the LOW hash bits for partitioning, so masking the
 * same hash again would collapse every key of a partition into
 * num_buckets/fan-out buckets and turn the chains into long lists —
 * the top bits are independent of the partition index.  Clamped to a
 * 31-bit shift so num_buckets == 1 stays defined (mask then zeroes
 * the bucket anyway).                                                */
static inline uint32_t repro_bucket_shift(int64_t num_buckets)
{
    uint32_t shift = 32;
    while (num_buckets > 1) { num_buckets >>= 1; shift--; }
    return shift > 31 ? 31 : shift;
}

/* Front-insertion chain build: head = the bucket's last tuple, next
 * pointing to earlier ones — the exact chains the scalar algorithm
 * (and the vectorised NumPy construction) produces.                  */
void repro_bucket_build(const uint32_t *keys, int64_t n,
                        int64_t num_buckets,
                        int64_t *heads, int64_t *nxt)
{
    const uint32_t mask = (uint32_t)(num_buckets - 1);
    const uint32_t shift = repro_bucket_shift(num_buckets);
    int64_t i;
    for (i = 0; i < num_buckets; i++) heads[i] = -1;
    for (i = 0; i < n; i++) {
        const uint32_t b = (murmur32(keys[i]) >> shift) & mask;
        nxt[i] = heads[b];
        heads[b] = i;
    }
}

/* Chain-walk probe, emitting matches probe-major: for each probe
 * tuple in input order, its matches follow the chain (front-insertion
 * order) — the same order the NumPy fallback produces.  Returns the
 * total match count, which may exceed `capacity`; in that case only
 * the first `capacity` pairs were written and the caller re-calls
 * with larger buffers.                                               */
int64_t repro_bucket_probe(const uint32_t *build_keys,
                           const int64_t *heads, const int64_t *nxt,
                           int64_t num_buckets,
                           const uint32_t *probe_keys, int64_t m,
                           int64_t *out_probe, int64_t *out_build,
                           int64_t capacity, int64_t *hops_out)
{
    const uint32_t mask = (uint32_t)(num_buckets - 1);
    const uint32_t shift = repro_bucket_shift(num_buckets);
    int64_t count = 0, hops = 0, i;
    for (i = 0; i < m; i++) {
        const uint32_t key = probe_keys[i];
        int64_t c = heads[(murmur32(key) >> shift) & mask];
        while (c >= 0) {
            hops++;
            if (build_keys[c] == key) {
                if (count < capacity) {
                    out_probe[count] = i;
                    out_build[count] = c;
                }
                count++;
            }
            c = nxt[c];
        }
    }
    *hops_out = hops;
    return count;
}

/* ------------------------------------------------------------------ */
/* 7: fused join + aggregate over a range of partitions                */
/*                                                                     */
/* For each partition p in [p0, p1) of the scattered R (build) and S   */
/* (probe) columns: build the bucket chains over R_p (the buckets of   */
/* 5), probe them with S_p, and accumulate per matched build tuple an  */
/* exact int64 count and sum, min or max of the match values (taken    */
/* from R or S).  Emits one (key, value[, count]) row per matched      */
/* build tuple, in build order; rows of the whole range are written   */
/* contiguously from out_keys[0].  One call replaces a build, a probe  */
/* and the per-partition NumPy grouping glue.                          */
/* ------------------------------------------------------------------ */

enum { REPRO_AGG_SUM = 0, REPRO_AGG_COUNT = 1, REPRO_AGG_MIN = 2,
       REPRO_AGG_MAX = 3 };

/* Returns the rows written, or -1 when the scratch cannot be
 * allocated (nothing written).  out_counts may be NULL (only mean
 * needs the counts next to the sums); *matches_out gets the number of
 * matching (build, probe) pairs.                                      */
int64_t repro_join_aggregate(
    const uint32_t *r_keys, const uint32_t *r_vals, const int64_t *r_bounds,
    const uint32_t *s_keys, const uint32_t *s_vals, const int64_t *s_bounds,
    int64_t p0, int64_t p1, int agg, int value_side_s,
    uint32_t *out_keys, int64_t *out_values, int64_t *out_counts,
    int64_t *matches_out)
{
    int64_t max_n = 0, rows = 0, matches = 0, p, i;
    for (p = p0; p < p1; p++) {
        const int64_t n = r_bounds[p + 1] - r_bounds[p];
        if (n > max_n) max_n = n;
    }
    int64_t max_buckets = 2;
    while (max_buckets < max_n) max_buckets <<= 1;
    int64_t *heads = (int64_t *)malloc((size_t)max_buckets * 8);
    int64_t *nxt = (int64_t *)malloc((size_t)(max_n + 1) * 8);
    int64_t *cnt = (int64_t *)malloc((size_t)(max_n + 1) * 8);
    int64_t *acc = (int64_t *)malloc((size_t)(max_n + 1) * 8);
    if (!heads || !nxt || !cnt || !acc) {
        free(heads); free(nxt); free(cnt); free(acc);
        return -1;
    }
    const int64_t acc_init = agg == REPRO_AGG_MIN ? INT64_MAX
                           : agg == REPRO_AGG_MAX ? INT64_MIN : 0;
    const int probe_values = value_side_s && agg != REPRO_AGG_COUNT;

    for (p = p0; p < p1; p++) {
        const uint32_t *rk = r_keys + r_bounds[p];
        const uint32_t *rv = r_vals + r_bounds[p];
        const uint32_t *sk = s_keys + s_bounds[p];
        const uint32_t *sv = s_vals + s_bounds[p];
        const int64_t n = r_bounds[p + 1] - r_bounds[p];
        const int64_t m = s_bounds[p + 1] - s_bounds[p];
        if (n == 0 || m == 0) continue;
        int64_t num_buckets = 2;
        while (num_buckets < n) num_buckets <<= 1;
        const uint32_t mask = (uint32_t)(num_buckets - 1);
        const uint32_t shift = repro_bucket_shift(num_buckets);

        for (i = 0; i < num_buckets; i++) heads[i] = -1;
        for (i = 0; i < n; i++) {
            const uint32_t b = (murmur32(rk[i]) >> shift) & mask;
            nxt[i] = heads[b];
            heads[b] = i;
            cnt[i] = 0;
            acc[i] = acc_init;
        }
        for (i = 0; i < m; i++) {
            const uint32_t key = sk[i];
            int64_t c = heads[(murmur32(key) >> shift) & mask];
            while (c >= 0) {
                if (rk[c] == key) {
                    cnt[c]++;
                    if (probe_values) {
                        const int64_t v = sv[i];
                        if (agg == REPRO_AGG_SUM) acc[c] += v;
                        else if (agg == REPRO_AGG_MIN) {
                            if (v < acc[c]) acc[c] = v;
                        } else if (v > acc[c]) acc[c] = v;
                    }
                }
                c = nxt[c];
            }
        }
        for (i = 0; i < n; i++) {
            const int64_t k = cnt[i];
            if (k == 0) continue;
            int64_t value;
            if (agg == REPRO_AGG_COUNT) value = k;
            else if (probe_values) value = acc[i];
            else if (agg == REPRO_AGG_SUM) value = k * (int64_t)rv[i];
            else value = rv[i];
            out_keys[rows] = rk[i];
            out_values[rows] = value;
            if (out_counts) out_counts[rows] = k;
            rows++;
            matches += k;
        }
    }
    free(heads); free(nxt); free(cnt); free(acc);
    *matches_out = matches;
    return rows;
}

/* ------------------------------------------------------------------ */
/* 8: group sort — stable LSD radix sort by uint32 key, in place, then */
/* a fold of adjacent equal keys                                       */
/*                                                                     */
/* Three passes of 11 key bits (a pass whose digit is the same for     */
/* every row is skipped), ping-ponging between the columns and one     */
/* scratch copy.  Equal keys are then folded in place: values added    */
/* (fold 0 / 1), or their min (2) / max (3); counts, when given, added. */
/* ------------------------------------------------------------------ */

#define SORT_DIGIT_BITS 11
#define SORT_RADIX (1 << SORT_DIGIT_BITS)
#define SORT_PASSES 3

/* Returns the folded row count (the groups are the first rows of each
 * column), or -1 when the scratch cannot be allocated (nothing
 * written).  counts may be NULL.                                      */
int64_t repro_sort_groups(uint32_t *keys, int64_t *values, int64_t *counts,
                          int64_t n, int fold)
{
    int64_t hist[SORT_PASSES][SORT_RADIX];
    int passes[SORT_PASSES], num_passes = 0, d, q;
    int64_t i;
    memset(hist, 0, sizeof hist);
    for (i = 0; i < n; i++) {
        const uint32_t k = keys[i];
        for (d = 0; d < SORT_PASSES; d++)
            hist[d][(k >> (d * SORT_DIGIT_BITS)) & (SORT_RADIX - 1)]++;
    }
    for (d = 0; d < SORT_PASSES; d++) {
        const uint32_t first = n ? (keys[0] >> (d * SORT_DIGIT_BITS))
                                   & (SORT_RADIX - 1) : 0;
        if (hist[d][first] != n) passes[num_passes++] = d;
    }

    if (num_passes > 0) {
        uint32_t *tmp_keys = (uint32_t *)malloc((size_t)n * 4);
        int64_t *tmp_values = (int64_t *)malloc((size_t)n * 8);
        int64_t *tmp_counts = counts ? (int64_t *)malloc((size_t)n * 8)
                                     : NULL;
        if (!tmp_keys || !tmp_values || (counts && !tmp_counts)) {
            free(tmp_keys); free(tmp_values); free(tmp_counts);
            return -1;
        }
        uint32_t *src_k = keys, *dst_k = tmp_keys, *swap_k;
        int64_t *src_v = values, *dst_v = tmp_values, *swap_v;
        int64_t *src_c = counts, *dst_c = tmp_counts, *swap_c;
        for (q = 0; q < num_passes; q++) {
            const int shift = passes[q] * SORT_DIGIT_BITS;
            int64_t *cursor = hist[passes[q]], sum = 0;
            for (i = 0; i < SORT_RADIX; i++) {
                const int64_t c = cursor[i];
                cursor[i] = sum;
                sum += c;
            }
            for (i = 0; i < n; i++) {
                const int64_t at =
                    cursor[(src_k[i] >> shift) & (SORT_RADIX - 1)]++;
                dst_k[at] = src_k[i];
                dst_v[at] = src_v[i];
                if (src_c) dst_c[at] = src_c[i];
            }
            swap_k = src_k; src_k = dst_k; dst_k = swap_k;
            swap_v = src_v; src_v = dst_v; dst_v = swap_v;
            swap_c = src_c; src_c = dst_c; dst_c = swap_c;
        }
        if (src_k != keys) {  /* an odd pass count ends in the scratch */
            memcpy(keys, src_k, (size_t)n * 4);
            memcpy(values, src_v, (size_t)n * 8);
            if (counts) memcpy(counts, src_c, (size_t)n * 8);
        }
        free(tmp_keys); free(tmp_values); free(tmp_counts);
    }

    int64_t groups = 0;
    for (i = 0; i < n; i++) {
        if (groups > 0 && keys[groups - 1] == keys[i]) {
            int64_t *v = values + groups - 1;
            if (fold == REPRO_AGG_MIN) {
                if (values[i] < *v) *v = values[i];
            } else if (fold == REPRO_AGG_MAX) {
                if (values[i] > *v) *v = values[i];
            } else {
                *v += values[i];
            }
            if (counts) counts[groups - 1] += counts[i];
            continue;
        }
        keys[groups] = keys[i];
        values[groups] = values[i];
        if (counts) counts[groups] = counts[i];
        groups++;
    }
    return groups;
}

/* ABI version stamp so a stale cached .so is never silently reused. */
int repro_kernels_abi(void) { return 10; }
