/* Fused coin kernel for live-edge sample generation.
 *
 * One call draws a run of sample rows straight into the pool's flat
 * positions array: for each sample t and each edge j it hashes
 * mix64(keys[j] + (t + 1) * GOLDEN), keeps j iff the hash is below the
 * edge's survival threshold (or the edge is sure to survive), and
 * appends j to the output.  Hash, threshold and compaction happen in
 * one pass per row, so no (window, m) hash matrix, boolean mask or
 * chunk list is ever materialised.
 *
 * The coin function is EXACTLY the numpy reference in
 * repro/engine/pool.py (_mix64 over _edge_keys + _sample_counters,
 * compared against _thresholds): pools drawn here are bit-identical
 * to the fallback's, which the identity tests rely on.
 */

#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX_A 0xBF58476D1CE4E5B9ULL
#define MIX_B 0x94D049BB133111EBULL

static inline uint64_t mix64(uint64_t x) {
    x ^= x >> 30;
    x *= MIX_A;
    x ^= x >> 27;
    x *= MIX_B;
    x ^= x >> 31;
    return x;
}

/* Rows are hashed BLOCK edges at a time into a survival-flag buffer
 * (a branch-free loop the compiler vectorises), then compacted.  On
 * x86-64 glibc hosts the hashing loop is also cloned for AVX2 and
 * picked at load time: 64-bit lanes hash four coins per instruction,
 * and the baseline clone keeps the object portable. */
#define BLOCK 512

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define HASH_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef HASH_CLONES
#define HASH_CLONES
#endif

HASH_CLONES
static void hash_block(int64_t n, const uint64_t *keys,
                       const uint64_t *thr, const uint8_t *sure,
                       uint64_t counter, uint8_t *alive) {
    for (int64_t i = 0; i < n; i++) {
        const uint64_t h = mix64(keys[i] + counter);
        alive[i] = (uint8_t)((h < thr[i]) | sure[i]);
    }
}

/* Draw samples lo .. hi-1 over m edges.
 *
 * out[at ..] receives the surviving edge positions, row after row, in
 * ascending edge order; row_ends[r] is set to the absolute end index in
 * `out` of row lo + r.  A row is started only while at least m slots
 * remain below `cap` (every edge may survive), so the kernel never
 * writes past `cap`: it stops at the first row boundary that lacks
 * room and returns the number of rows completed.  The caller grows
 * `out` and resumes at lo + rows; the written entry count is
 * row_ends[rows - 1] - at.
 */
int64_t repro_coin_rows(int64_t m, const uint64_t *keys,
                        const uint64_t *thr, const uint8_t *sure,
                        int64_t lo, int64_t hi, int64_t *out, int64_t at,
                        int64_t cap, int64_t *row_ends) {
    uint8_t alive[BLOCK];
    int64_t t;
    for (t = lo; t < hi; t++) {
        if (cap - at < m) {
            break;
        }
        const uint64_t counter = (uint64_t)(t + 1) * GOLDEN;
        for (int64_t j0 = 0; j0 < m; j0 += BLOCK) {
            const int64_t n = m - j0 < BLOCK ? m - j0 : BLOCK;
            hash_block(n, keys + j0, thr + j0, sure + j0, counter, alive);
            /* branch-free compaction: always store, advance on survival */
            for (int64_t i = 0; i < n; i++) {
                out[at] = j0 + i;
                at += alive[i];
            }
        }
        row_ends[t - lo] = at;
    }
    return t - lo;
}
