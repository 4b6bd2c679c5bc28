/* Native hot-path kernels for the partitioning data plane.
 *
 * Five primitives, mirroring the paper's inner loops (Section 4):
 *
 *   1. hash           — murmur3 finalizer (Code 3) or radix bits;
 *   2. radix histogram — fused hash + per-partition counts, with the
 *      optional per-(partition, lane) histogram the FPGA cache-line
 *      accounting needs;
 *   3. stable scatter — sequential cursor scatter, byte-identical to a
 *      stable sort by partition index;
 *   4. SWWC scatter   — the same scatter driven through cache-line
 *      sized software write-combine buffers (Code 2): tuples
 *      accumulate per partition and a full buffer is flushed with one
 *      memcpy, so the random-write working set is the buffer pool, not
 *      the whole output;
 *   5. batch partition — 2 and 3 run per request of a batch, straight
 *      from each request's own columns into its slice of one shared
 *      output: one call (one GIL release) per batch.
 *
 * Deliberately plain C99 with no Python.h: the module is loaded
 * through ctypes, which drops the GIL for the duration of every call —
 * that is what makes the thread backend of the execution engine scale
 * instead of serialising on NumPy dispatch.  Every function is
 * instantiated for the three partition-index dtypes the morsel planner
 * uses (uint8 / uint16 / int64, see exec.morsels.parts_dtype).
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
/* 1 + 2: fused hash + histogram (+ optional lane histogram)           */
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

/* Hash only (no histogram): for callers that want raw partition
 * indices (placement, isolation, the NumPy batch twin's packed index). */
void repro_hash_only_u16(const uint32_t *keys, int64_t n,
                         int64_t num_partitions, int use_hash,
                         uint16_t *parts)
{
    const uint32_t mask = (uint32_t)(num_partitions - 1);
    int64_t i;
    if (use_hash) {
        for (i = 0; i < n; i++)
            parts[i] = (uint16_t)(murmur32(keys[i]) & mask);
    } else {
        for (i = 0; i < n; i++)
            parts[i] = (uint16_t)(keys[i] & mask);
    }
}

void repro_hash_only_i64(const uint32_t *keys, int64_t n,
                         int64_t num_partitions, int use_hash,
                         int64_t *parts)
{
    const uint32_t mask = (uint32_t)(num_partitions - 1);
    int64_t i;
    if (use_hash) {
        for (i = 0; i < n; i++)
            parts[i] = (int64_t)(murmur32(keys[i]) & mask);
    } else {
        for (i = 0; i < n; i++)
            parts[i] = (int64_t)(keys[i] & mask);
    }
}

/* ------------------------------------------------------------------ */
/* 3: stable cursor scatter                                            */
/*                                                                     */
/* cursor[] starts as the morsel's per-partition destination bases and */
/* is advanced in place; the sequential visit order makes the scatter  */
/* stable, i.e. byte-identical to a stable sort by partition index.    */
/* ------------------------------------------------------------------ */

#define DEFINE_SCATTER(SUFFIX, PART_T)                                     \
    void repro_scatter_##SUFFIX(                                           \
        const uint32_t *keys, const uint32_t *payloads,                    \
        const PART_T *parts, int64_t n, int64_t *cursor,                   \
        uint32_t *out_keys, uint32_t *out_payloads)                        \
    {                                                                      \
        const int64_t pf_end = n > SCATTER_PF_DIST ? n - SCATTER_PF_DIST : 0; \
        int64_t i;                                                         \
        for (i = 0; i < pf_end; i++) {                                     \
            const int64_t a = cursor[parts[i + SCATTER_PF_DIST]];          \
            REPRO_PREFETCH_W(out_keys + a);                                \
            REPRO_PREFETCH_W(out_payloads + a);                            \
            const int64_t d = cursor[parts[i]]++;                          \
            out_keys[d] = keys[i];                                         \
            out_payloads[d] = payloads[i];                                 \
        }                                                                  \
        for (; i < n; i++) {                                               \
            const int64_t d = cursor[parts[i]]++;                          \
            out_keys[d] = keys[i];                                         \
            out_payloads[d] = payloads[i];                                 \
        }                                                                  \
    }

DEFINE_SCATTER(u8, uint8_t)
DEFINE_SCATTER(u16, uint16_t)
DEFINE_SCATTER(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 4: SWWC buffered scatter (Code 2)                                   */
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
/* 4b: multi-threaded SWWC scatter                                     */
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
/* 5: fused batch partition                                            */
/*                                                                     */
/* For each request r of the batch, in order: primitive 2 on its keys  */
/* into the parts[] scratch (cursor[] doubling as the histogram, a     */
/* tuple's lane being its index within its own request mod lanes),     */
/* an exclusive prefix sum that turns the counts into cursors starting */
/* at the request's first output slot, and primitive 3.  Request r's   */
/* tuples land in out[sum(sizes[:r]) : sum(sizes[:r+1])], stable-      */
/* sorted by partition: the bytes of hash_hist + scatter on that       */
/* request alone.  The inputs are only read.                           */
/*                                                                     */
/* Few, wide arguments, because taking an ndarray's address costs the  */
/* caller about as much as partitioning 200 tuples: table[] holds      */
/* batch sizes, then batch key-column addresses, then batch payload-   */
/* column addresses; out[] is the key column (total tuples) followed   */
/* by the payload column; acc[] is num_partitions cursor slots         */
/* followed by the batch * num_partitions * lanes lane histogram,      */
/* zeroed by the caller; parts[] holds max(sizes) entries.  lanes and  */
/* num_partitions are powers of two.                                   */
/* ------------------------------------------------------------------ */

#define DEFINE_PARTITION_BATCH(SUFFIX, PART_T)                             \
    void repro_partition_batch_##SUFFIX(                                   \
        const intptr_t *table, int64_t batch, int64_t num_partitions,      \
        int use_hash, int64_t lanes, PART_T *parts, uint32_t *out,         \
        int64_t *acc)                                                      \
    {                                                                      \
        int64_t *cursor = acc;                                             \
        int64_t *lane_hist = acc + num_partitions;                         \
        uint32_t *out_payloads = out;                                      \
        int64_t base = 0, r, p;                                            \
        for (r = 0; r < batch; r++) out_payloads += table[r];              \
        for (r = 0; r < batch; r++) {                                      \
            const int64_t n = table[r];                                    \
            const uint32_t *keys = (const uint32_t *)table[batch + r];     \
            const uint32_t *payloads =                                     \
                (const uint32_t *)table[2 * batch + r];                    \
            memset(cursor, 0, (size_t)num_partitions * sizeof(int64_t));   \
            repro_hash_hist_##SUFFIX(keys, n, num_partitions, use_hash,    \
                                     lanes, 0, parts, cursor, lane_hist);  \
            lane_hist += num_partitions * lanes;                           \
            for (p = 0; p < num_partitions; p++) {                         \
                const int64_t count = cursor[p];                           \
                cursor[p] = base;                                          \
                base += count;                                             \
            }                                                              \
            repro_scatter_##SUFFIX(keys, payloads, parts, n, cursor,       \
                                   out, out_payloads);                     \
        }                                                                  \
    }

DEFINE_PARTITION_BATCH(u8, uint8_t)
DEFINE_PARTITION_BATCH(u16, uint16_t)
DEFINE_PARTITION_BATCH(i64, int64_t)

/* ------------------------------------------------------------------ */
/* 6. bucket-chaining hash join: build + probe (Section 3.3)          */
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

/* ABI version stamp so a stale cached .so is never silently reused. */
int repro_kernels_abi(void) { return 4; }
