/* Native replay kernel: C twin of the canonical compiled replay,
 * repro.sim.engine.Engine.run_compiled.
 *
 * One call replays one compiled program against one (fresh) flat-latency
 * memory system of any of the three coherence protocols and returns
 * finish times, per-processor time breakdowns, execution time, and one
 * int64 blob.  The blob always holds the *visible* state, the part a
 * caller can observe after the run: allocator first touches and rr_next
 * (they mutate the application's own allocator), the per-cluster
 * counters the RunResult is assembled from, and -- on deadlock only --
 * the sync registry the canonical deadlock message is built from.  The
 * *private* end state (directory table and counters, per-cluster cache
 * columns in exact LRU order, free lists, evictions/inserts, miss
 * histories) is exported only when export_private is set, for the
 * directory protocol only; without it the kernel also skips the
 * dict-order insertion logs, which exist only to order that export.  The
 * Python driver (repro.native.driver) writes the blob back into the live
 * objects, so the result is byte-identical to the canonical python
 * engine -- which remains the reference.
 *
 * Protocol seam.  One replay loop, scheduler, map, cache, counter,
 * first-touch allocator and sync registry serve three protocols
 * (proto: 0 directory = memory.coherence, 1 snoopy = memory.snoopy,
 * 2 dls = memory.dls).  Per event the loop picks a cache index ci: the
 * cluster for directory and DLS, the processor for snoopy (per-processor
 * caches).  The inline read-hit path (LRU touch, merge, prefetch credit)
 * is shared and protocol-blind; protocols differ only on the cold paths
 * -- read miss and merge refetch (proto_read_miss), write miss
 * (proto_write_miss), a write hit on a non-EXCLUSIVE line
 * (proto_upgrade) and victim retirement (inside install) -- each one
 * switch on proto, whose directory arm is the original code.
 *
 * Equivalences relied on (proved against the canonical engine, pinned by
 * tests/test_native_properties.py and tests/test_native_protocols.py):
 *
 * - scheduler: the canonical (time, seq, pid) heap pops in FIFO-per-time
 *   order, which a bucket queue gives in O(1): a ring of per-time FIFO
 *   slots covering [cur, cur + 4096) for the time cur of the last pop,
 *   plus an overflow (time, seq, pid) heap for events further ahead.
 *   cur never decreases, so an overflow event was queued before every
 *   ring event of its time, and on a tie the overflow pops first.
 * - LRU: a doubly-linked list over slot numbers (head = LRU) mirrors
 *   CPython dict insertion order under the same touch discipline
 *   (pop + reinsert == unlink + push_tail); maintained untouched in
 *   infinite mode too so the exported slot_of order equals dict order.
 * - counters: busy cycles and reads/writes are counted online at op
 *   dispatch (never on a merge retry), which totals exactly what the
 *   canonical python replay counts.
 * - DLS probes the local slice first, where python looks the home up
 *   before probing: a slice only ever holds lines homed at its cluster,
 *   and every install follows the home lookup (and so the page binding)
 *   of its line, so a local-slice hit is exactly a local-home hit and
 *   the lookup it skips could not have bound a page.  A local-slice miss
 *   looks the home up and goes local or remote from there; remote reads
 *   never merge, so a merge retry is always a local-home read.  There is
 *   no directory and no upgrade miss (a write hit just dirties the
 *   line).  Histories are per cluster: COHERENCE after a cluster's first
 *   touch of a remote-homed line, CAPACITY on slice eviction.
 * - snoopy keeps one cache per processor, installed with fetcher -1, so
 *   the shared prefetch credit never fires (python's snoopy hit path has
 *   none).  A miss snoops the cluster-mates in ascending pid order,
 *   pending lines included; a hit there is a cache-to-cache transfer
 *   that downgrades an EXCLUSIVE copy, with no directory transaction.
 *   Histories are per processor, holding python's marks encoded so the
 *   miss cause is the mark itself: 1 EVICTED (CAPACITY), 2 INVALIDATED
 *   (COHERENCE), 3 RESIDENT (classifies CAPACITY).  The directory
 *   transitions are memory.directory's: a read fill never raises the
 *   dirty-owner error and downgrades the owner only when the line is
 *   EXCLUSIVE and the requester is not its only sharer; a victim is
 *   hinted or written back only when no cluster-mate still holds it.
 *
 * - task table: GRAB (op 6) takes k = grabbed++ and continues in task
 *   block k, or -- once k >= n_tasks -- back in the processor's own
 *   column just after the GRAB that entered the table.  It costs no
 *   cycles, takes no seq and is never a scheduling point (the inner
 *   loop continues without reaching the fast-path check), which is
 *   exactly where the generator path reads its task counter.  Every
 *   task block ends with a GRAB (validated by CompiledProgram), so a
 *   block never runs off its end; GRAB sits last in the dispatch
 *   chain, off the READ/WORK/WRITE branches.
 *
 * Directory masks are kept as a separate 64-bit word (Python packs
 * (mask << 2) | state into one unbounded int); the driver gates the
 * kernel on n_clusters <= 64.
 *
 * Statuses: 0 ok, 1 deadlock (state still exported), -2 dirty-owner
 * ValueError, -3 re-acquiring held lock, -4 releasing foreign lock,
 * -5 out of memory.  Mirrored in repro.native.driver.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ABI 4

#define PROTO_DIRECTORY 0
#define PROTO_SNOOPY 1
#define PROTO_DLS 2

#define ST_OK 0
#define ST_DEADLOCK 1
#define ST_DIRTY_OWNER (-2)
#define ST_REACQUIRE (-3)
#define ST_BAD_RELEASE (-4)
#define ST_NOMEM (-5)

#define NO_LINE INT64_MIN
#define T_INF ((int64_t)1 << 62)

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

static inline int ctz64(uint64_t v) { return __builtin_ctzll(v); }
static inline int popcount64(uint64_t v) { return __builtin_popcountll(v); }

/* Floor division matching Python's // for a positive divisor. */
static inline int64_t fdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b) != 0 && a < 0) q--;
    return q;
}

/* ---------------------------------------------------------------- map
 * Open-addressing int64 hash map, linear probe, tombstone deletion,
 * power-of-two capacity, Fibonacci hashing.  v2 is optional (directory
 * entries store (state, mask); everything else stores one value). */

typedef struct {
    int64_t *key;
    int64_t *v1;
    int64_t *v2;
    uint8_t *st; /* 0 empty, 1 used, 2 tombstone */
    size_t cap;
    size_t live;
    size_t fill; /* used + tombstones */
    int two;
} Map;

static int map_init(Map *m, size_t cap0, int two) {
    size_t c = 16;
    while (c < cap0) c <<= 1;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->v1 = (int64_t *)malloc(c * sizeof(int64_t));
    m->v2 = two ? (int64_t *)malloc(c * sizeof(int64_t)) : NULL;
    m->st = (uint8_t *)calloc(c, 1);
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    m->two = two;
    if (!m->key || !m->v1 || (two && !m->v2) || !m->st) return ST_NOMEM;
    return 0;
}

static void map_free(Map *m) {
    free(m->key);
    free(m->v1);
    free(m->v2);
    free(m->st);
    m->key = m->v1 = m->v2 = NULL;
    m->st = NULL;
}

static inline size_t map_ix(const Map *m, int64_t k) {
    uint64_t h = (uint64_t)k * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return (size_t)h & (m->cap - 1);
}

static inline int map_get(const Map *m, int64_t k, int64_t *v1, int64_t *v2) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            if (v1) *v1 = m->v1[i];
            if (v2) *v2 = m->v2[i];
            return 1;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

static int map_put(Map *m, int64_t k, int64_t a, int64_t b);

static int map_rehash(Map *m, size_t want) {
    size_t c = 16;
    while (c < want) c <<= 1;
    int64_t *ok = m->key, *o1 = m->v1, *o2 = m->v2;
    uint8_t *os = m->st;
    size_t ocap = m->cap;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->v1 = (int64_t *)malloc(c * sizeof(int64_t));
    m->v2 = m->two ? (int64_t *)malloc(c * sizeof(int64_t)) : NULL;
    m->st = (uint8_t *)calloc(c, 1);
    if (!m->key || !m->v1 || (m->two && !m->v2) || !m->st) {
        free(m->key);
        free(m->v1);
        free(m->v2);
        free(m->st);
        m->key = ok;
        m->v1 = o1;
        m->v2 = o2;
        m->st = os;
        return ST_NOMEM;
    }
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    for (size_t i = 0; i < ocap; i++)
        if (os[i] == 1) map_put(m, ok[i], o1[i], m->two ? o2[i] : 0);
    free(ok);
    free(o1);
    free(o2);
    free(os);
    return 0;
}

static int map_put(Map *m, int64_t k, int64_t a, int64_t b) {
    if ((m->fill + 1) * 8 >= m->cap * 5) {
        if (map_rehash(m, (m->live + 1) * 4)) return ST_NOMEM;
    }
    size_t i = map_ix(m, k);
    size_t tomb = (size_t)-1;
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) break;
        if (s == 2) {
            if (tomb == (size_t)-1) tomb = i;
        } else if (m->key[i] == k) {
            m->v1[i] = a;
            if (m->two) m->v2[i] = b;
            return 0;
        }
        i = (i + 1) & (m->cap - 1);
    }
    if (tomb != (size_t)-1) {
        i = tomb;
    } else {
        m->fill++;
    }
    m->st[i] = 1;
    m->key[i] = k;
    m->v1[i] = a;
    if (m->two) m->v2[i] = b;
    m->live++;
    return 0;
}

/* Delete k; returns 1 (v1 filled) when present, 0 otherwise. */
static inline int map_del(Map *m, int64_t k, int64_t *v1) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            if (v1) *v1 = m->v1[i];
            m->st[i] = 2;
            m->live--;
            return 1;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

/* ------------------------------------------------------------- cache
 * Slab-column cache mirroring memory.cache.FullyAssociativeCache: the
 * same columns, the same free-list discipline (finite: preallocated,
 * pop order 0,1,2,...; infinite: grown in python's exact schedule),
 * plus an explicit LRU list standing in for dict insertion order. */

typedef struct {
    Map slot_of;
    int64_t *state, *pending, *fetcher, *tag;
    int64_t *lprev, *lnext; /* LRU links by slot; head = LRU victim */
    int64_t head, tail;
    int64_t n_slots;
    int64_t *free_;
    int64_t free_n, free_cap;
    int64_t evictions, inserts;
} Cache;

static int cache_free_push(Cache *c, int64_t s) {
    if (c->free_n == c->free_cap) {
        int64_t nc = c->free_cap ? c->free_cap * 2 : 64;
        int64_t *nf = (int64_t *)realloc(c->free_, nc * sizeof(int64_t));
        if (!nf) return ST_NOMEM;
        c->free_ = nf;
        c->free_cap = nc;
    }
    c->free_[c->free_n++] = s;
    return 0;
}

static int cache_columns_grow(Cache *c, int64_t nn) {
    int64_t *p;
    p = (int64_t *)realloc(c->state, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->state = p;
    p = (int64_t *)realloc(c->pending, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->pending = p;
    p = (int64_t *)realloc(c->fetcher, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->fetcher = p;
    p = (int64_t *)realloc(c->tag, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->tag = p;
    p = (int64_t *)realloc(c->lprev, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->lprev = p;
    p = (int64_t *)realloc(c->lnext, nn * sizeof(int64_t));
    if (!p) return ST_NOMEM;
    c->lnext = p;
    for (int64_t i = c->n_slots; i < nn; i++) {
        c->state[i] = 0;
        c->pending[i] = 0;
        c->fetcher[i] = -1;
        c->tag[i] = 0;
    }
    return 0;
}

/* FullyAssociativeCache._grow, verbatim schedule: add = n ? n : 1024,
 * free gains n+add-1 .. n+1 (top of stack = n+1), slot n is returned. */
static int cache_grow(Cache *c, int64_t *slot_out) {
    int64_t n = c->n_slots;
    int64_t add = n ? n : 1024;
    int rc = cache_columns_grow(c, n + add);
    if (rc) return rc;
    for (int64_t i = n + add - 1; i > n; i--) {
        rc = cache_free_push(c, i);
        if (rc) return rc;
    }
    c->n_slots = n + add;
    *slot_out = n;
    return 0;
}

static inline void lru_push_tail(Cache *c, int64_t s) {
    c->lprev[s] = c->tail;
    c->lnext[s] = -1;
    if (c->tail >= 0)
        c->lnext[c->tail] = s;
    else
        c->head = s;
    c->tail = s;
}

static inline void lru_unlink(Cache *c, int64_t s) {
    int64_t p = c->lprev[s], nx = c->lnext[s];
    if (p >= 0)
        c->lnext[p] = nx;
    else
        c->head = nx;
    if (nx >= 0)
        c->lprev[nx] = p;
    else
        c->tail = p;
}

static inline void lru_touch(Cache *c, int64_t s) {
    if (c->tail == s) return;
    lru_unlink(c, s);
    lru_push_tail(c, s);
}

/* -------------------------------------------------------------- sync */

typedef struct {
    int64_t id, episodes, n_wait;
    int64_t *wpid, *warr; /* capacity n, fixed */
} Barrier;

typedef struct {
    int64_t id, holder, acq, cont;
    int64_t *qpid, *qarr; /* FIFO ring */
    int64_t qh, qn, qcap;
} Lock;

static int lock_enqueue(Lock *lk, int64_t pid, int64_t t) {
    if (lk->qn == lk->qcap) {
        int64_t nc = lk->qcap ? lk->qcap * 2 : 4;
        int64_t *np = (int64_t *)malloc(nc * sizeof(int64_t));
        int64_t *na = (int64_t *)malloc(nc * sizeof(int64_t));
        if (!np || !na) {
            free(np);
            free(na);
            return ST_NOMEM;
        }
        for (int64_t i = 0; i < lk->qn; i++) {
            np[i] = lk->qpid[(lk->qh + i) % (lk->qcap ? lk->qcap : 1)];
            na[i] = lk->qarr[(lk->qh + i) % (lk->qcap ? lk->qcap : 1)];
        }
        free(lk->qpid);
        free(lk->qarr);
        lk->qpid = np;
        lk->qarr = na;
        lk->qh = 0;
        lk->qcap = nc;
    }
    int64_t i = (lk->qh + lk->qn) % lk->qcap;
    lk->qpid[i] = pid;
    lk->qarr[i] = t;
    lk->qn++;
    return 0;
}

static inline void lock_dequeue(Lock *lk, int64_t *pid, int64_t *arr) {
    *pid = lk->qpid[lk->qh];
    *arr = lk->qarr[lk->qh];
    lk->qh = (lk->qh + 1) % lk->qcap;
    lk->qn--;
}

/* ------------------------------------------------------------- heap
 * (time, seq, pid) binary min-heap; seq is a monotone counter, so pop
 * order is FIFO within one time.  Only the scheduler's far events go
 * here (see Sched below). */

typedef struct {
    int64_t t, seq, pid;
} Ev;

static inline int ev_lt(Ev a, Ev b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
}

static inline void heap_push(Ev *h, int64_t *hn, Ev e) {
    int64_t i = (*hn)++;
    h[i] = e;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (!ev_lt(h[i], h[par])) break;
        Ev tmp = h[i];
        h[i] = h[par];
        h[par] = tmp;
        i = par;
    }
}

static inline Ev heap_pop(Ev *h, int64_t *hn) {
    Ev top = h[0];
    int64_t n = --(*hn);
    if (n > 0) {
        h[0] = h[n];
        int64_t i = 0;
        for (;;) {
            int64_t l = 2 * i + 1, r = l + 1, m = i;
            if (l < n && ev_lt(h[l], h[m])) m = l;
            if (r < n && ev_lt(h[r], h[m])) m = r;
            if (m == i) break;
            Ev tmp = h[i];
            h[i] = h[m];
            h[m] = tmp;
            i = m;
        }
    }
    return top;
}

/* -------------------------------------------------------- scheduler
 * Bucket queue over event time, popping in FIFO-per-time order.  A ring
 * of RING slots holds every event in [cur, cur + RING), one time per
 * slot, where cur is the time of the last pop; a slot is a FIFO of pids
 * linked through next[] (a processor has at most one queued event), and
 * a two-level occupancy bitmap finds the first non-empty slot.  Events
 * at or beyond cur + RING go to the overflow heap.  cur never decreases
 * and every push is at a time >= cur (WORK is non-negative), so each
 * overflow event at time T was pushed before any ring event at T: on
 * equal times the overflow wins. */

#define RING_BITS 12 /* at most 12: one top word covers RING / 64 words */
#define RING (1 << RING_BITS)
#define RMASK (RING - 1)

typedef struct {
    int64_t cur;
    int32_t *head, *tail; /* RING: slot FIFOs, head -1 when empty */
    uint64_t *occ;        /* RING / 64: non-empty slots */
    uint64_t top;         /* non-zero occ words; 0 iff the ring is empty */
    int32_t *next;        /* n: FIFO link per pid */
    Ev *heap;             /* n: overflow (far events) */
    int64_t hn, seq;
} Sched;

static int sched_init(Sched *s, int64_t n) {
    memset(s, 0, sizeof(*s));
    s->head = (int32_t *)malloc(RING * sizeof(int32_t));
    s->tail = (int32_t *)malloc(RING * sizeof(int32_t));
    s->occ = (uint64_t *)calloc(RING / 64, sizeof(uint64_t));
    s->next = (int32_t *)malloc(n * sizeof(int32_t));
    s->heap = (Ev *)malloc(n * sizeof(Ev));
    if (!s->head || !s->tail || !s->occ || !s->next || !s->heap)
        return ST_NOMEM;
    memset(s->head, 0xff, RING * sizeof(int32_t));
    return 0;
}

static void sched_free(Sched *s) {
    free(s->head);
    free(s->tail);
    free(s->occ);
    free(s->next);
    free(s->heap);
}

static inline void sched_push(Sched *s, int64_t t, int64_t pid) {
    if ((uint64_t)(t - s->cur) >= RING) {
        Ev e = {t, s->seq++, pid};
        heap_push(s->heap, &s->hn, e);
        return;
    }
    int slot = (int)(t & RMASK);
    s->next[pid] = -1;
    if (s->head[slot] < 0) {
        s->head[slot] = (int32_t)pid;
        s->occ[slot >> 6] |= 1ULL << (slot & 63);
        s->top |= 1ULL << (slot >> 6);
    } else {
        s->next[s->tail[slot]] = (int32_t)pid;
    }
    s->tail[slot] = (int32_t)pid;
}

/* First non-empty ring slot at or after cur's, cyclically (top != 0). */
static inline int ring_first(const Sched *s) {
    int c = (int)(s->cur & RMASK);
    int w = c >> 6;
    uint64_t m = s->occ[w] & (~0ULL << (c & 63));
    if (m) return (w << 6) | ctz64(m);
    uint64_t later = s->top & (~1ULL << w); /* words after w */
    int w2 = ctz64(later ? later : s->top); /* else wrap around */
    return (w2 << 6) | ctz64(s->occ[w2]);
}

static inline int64_t ring_time(const Sched *s, int slot) {
    return s->cur + ((slot - s->cur) & RMASK);
}

/* Pop the earliest event (queue non-empty): its pid, its time in *t,
 * and the earliest time still queued (T_INF when none) in *hz. */
static inline int64_t sched_pop(Sched *s, int64_t *t, int64_t *hz) {
    int slot = 0;
    int64_t rt = T_INF;
    if (s->top) {
        slot = ring_first(s);
        rt = ring_time(s, slot);
    }
    int64_t ot = s->hn ? s->heap[0].t : T_INF;
    if (ot <= rt) {
        Ev e = heap_pop(s->heap, &s->hn);
        s->cur = *t = e.t;
        ot = s->hn ? s->heap[0].t : T_INF;
        *hz = ot < rt ? ot : rt;
        return e.pid;
    }
    int32_t pid = s->head[slot];
    int32_t nx = s->next[pid];
    s->head[slot] = nx;
    s->cur = *t = rt;
    if (nx < 0) { /* slot drained: the ring minimum moves on */
        uint64_t *wd = &s->occ[slot >> 6];
        *wd &= ~(1ULL << (slot & 63));
        if (!*wd) s->top &= ~(1ULL << (slot >> 6));
        rt = s->top ? ring_time(s, ring_first(s)) : T_INF;
    }
    *hz = ot < rt ? ot : rt;
    return pid;
}

/* --------------------------------------------------------------- buf */

typedef struct {
    int64_t *v;
    int64_t n, cap;
} Buf;

static int buf_push(Buf *b, int64_t x) {
    if (b->n == b->cap) {
        int64_t nc = b->cap ? b->cap * 2 : 256;
        int64_t *nv = (int64_t *)realloc(b->v, nc * sizeof(int64_t));
        if (!nv) return ST_NOMEM;
        b->v = nv;
        b->cap = nc;
    }
    b->v[b->n++] = x;
    return 0;
}

/* Insert with python-dict ordering: log the key on a NEW insert only
 * (reassigning a present key keeps its position, exactly as a python
 * dict does).  The export section replays the log to emit entries in
 * dict iteration order — for insert-only maps a forward scan; for maps
 * with deletes (the directory), a backward scan keeping the latest
 * occurrence of each live key, then reversed, since a del + reinsert
 * moves a python-dict key to the end.  A NULL log (no private export)
 * makes this a plain map_put. */
static int map_put_ordered(Map *m, Buf *log, int64_t k, int64_t a,
                           int64_t b) {
    if (log && !map_get(m, k, NULL, NULL) && buf_push(log, k))
        return ST_NOMEM;
    return map_put(m, k, a, b);
}

/* ---------------------------------------------------------- context */

#define NCTR 11
/* per-cluster counter layout (mirrored in repro.native.driver):
 * 0 reads, 1 writes, 2 read_misses, 3 write_misses, 4 upgrade_misses,
 * 5 merges, 6 merge_refetches, 7 prefetch_hits,
 * 8 cold, 9 capacity, 10 coherence (by_cause tallies) */

typedef struct {
    int64_t n, ncl, csize, cap, lpp, rr_next;
    int touch;
    int proto;          /* PROTO_*: picks the cold-path arms (see header) */
    int export_private; /* export the private end state (see header) */
    int64_t l_lc, l_rc, l_ldr, l_rd3;
    int64_t snoop_penalty, l_c2c; /* snoopy bus costs */
    Cache *ca;  /* per cache index: ncl, or n for snoopy */
    Map dir;    /* line -> (state, mask); unused by DLS */
    Buf dir_log;   /* dir insertion log (python-dict export order) */
    Map homes;  /* line -> home memo (per replay, as in the kernel) */
    Map pages;  /* page -> home (allocator._page_home) */
    Map *hist;  /* per cache index: line -> cause (1 CAPACITY,
                 * 2 COHERENCE; snoopy adds 3 RESIDENT, see header) */
    Buf *hist_log; /* per cache index: history insertion logs */
    int64_t *ctr; /* ncl * NCTR */
    int64_t inv_sent, repl_hints, writebacks;
    int64_t *ft; /* first-touch log: (page, home) pairs, in order */
    int64_t ft_n, ft_cap;
    int64_t *bd; /* out: 4n (cpu, load, merge, sync) */
} Ctx;

static int ft_push(Ctx *x, int64_t page, int64_t home) {
    if (x->ft_n * 2 == x->ft_cap) {
        int64_t nc = x->ft_cap ? x->ft_cap * 2 : 64;
        int64_t *nf = (int64_t *)realloc(x->ft, nc * sizeof(int64_t));
        if (!nf) return ST_NOMEM;
        x->ft = nf;
        x->ft_cap = nc;
    }
    x->ft[x->ft_n * 2] = page;
    x->ft[x->ft_n * 2 + 1] = home;
    x->ft_n++;
    return 0;
}

/* The insertion logs map_put_ordered appends to: NULL when the private
 * state is not exported, since they only order that export. */
static inline Buf *dir_log(Ctx *x) {
    return x->export_private ? &x->dir_log : NULL;
}
static inline Buf *hist_log(Ctx *x, int cl) {
    return x->export_private ? &x->hist_log[cl] : NULL;
}

/* Per-line home with the kernel's memo; binds the page on first touch
 * (allocation.PageAllocator.home_of_line, verbatim semantics). */
static int home_of(Ctx *x, int64_t line, int64_t *home_out) {
    int64_t h;
    if (map_get(&x->homes, line, &h, NULL)) {
        *home_out = h;
        return 0;
    }
    int64_t page = fdiv(line, x->lpp);
    if (!map_get(&x->pages, page, &h, NULL)) {
        h = x->rr_next;
        if (map_put(&x->pages, page, h, 0)) return ST_NOMEM;
        x->rr_next = (h + 1) % x->ncl;
        if (ft_push(x, page, h)) return ST_NOMEM;
    }
    if (map_put(&x->homes, line, h, 0)) return ST_NOMEM;
    *home_out = h;
    return 0;
}

/* Victim retirement: replacement hint for SHARED, writeback for a line
 * this cluster holds EXCLUSIVE (exact packed comparison, as in python). */
static int retire(Ctx *x, int cl, int64_t vline, int64_t vstate) {
    int64_t ds, dm;
    if (!map_get(&x->dir, vline, &ds, &dm)) return 0;
    if (vstate == 2) { /* EXCLUSIVE */
        if (ds == 2 && dm == (int64_t)(1ULL << cl)) {
            map_del(&x->dir, vline, NULL);
            x->writebacks++;
        }
    } else {
        dm &= (int64_t)~(1ULL << cl);
        x->repl_hints++;
        if (dm) {
            if (map_put(&x->dir, vline, ds, dm)) return ST_NOMEM;
        } else {
            map_del(&x->dir, vline, NULL);
        }
    }
    return 0;
}

static int snoopy_retire(Ctx *x, int64_t ci, int64_t vline, int64_t vstate);

/* Install `line` into cache ci (state_new 1=SHARED on a read miss,
 * 2=EXCLUSIVE on a write miss) for `fetcher`, evicting the LRU victim
 * when the cache is full — the python kernel's install block, verbatim
 * order.  The victim's history mark (1) is CAPACITY, and snoopy's
 * EVICTED; only its retirement differs by protocol (DLS has no
 * directory: a dirty slice victim is just a writeback). */
static int install(Ctx *x, int64_t ci, int64_t fetcher, int64_t line,
                   int64_t ready, int64_t state_new) {
    Cache *c = &x->ca[ci];
    int64_t slot;
    if (x->touch && (int64_t)c->slot_of.live >= x->cap) {
        slot = c->head;
        int64_t vline = c->tag[slot];
        int64_t vstate = c->state[slot];
        map_del(&c->slot_of, vline, NULL);
        lru_unlink(c, slot);
        c->evictions++;
        c->state[slot] = state_new;
        c->pending[slot] = ready;
        c->fetcher[slot] = fetcher;
        c->tag[slot] = line;
        if (map_put(&c->slot_of, line, slot, 0)) return ST_NOMEM;
        lru_push_tail(c, slot);
        c->inserts++;
        if (map_put_ordered(&x->hist[ci], hist_log(x, ci), vline,
                            1 /*CAPACITY*/, 0))
            return ST_NOMEM;
        int rc = 0;
        if (x->proto == PROTO_DIRECTORY)
            rc = retire(x, (int)ci, vline, vstate);
        else if (x->proto == PROTO_SNOOPY)
            rc = snoopy_retire(x, ci, vline, vstate);
        else if (vstate == 2)
            x->writebacks++;
        if (rc) return rc;
    } else {
        if (c->free_n) {
            slot = c->free_[--c->free_n];
        } else {
            int rc = cache_grow(c, &slot);
            if (rc) return rc;
        }
        c->state[slot] = state_new;
        c->pending[slot] = ready;
        c->fetcher[slot] = fetcher;
        c->tag[slot] = line;
        if (map_put(&c->slot_of, line, slot, 0)) return ST_NOMEM;
        lru_push_tail(c, slot);
        c->inserts++;
    }
    if (x->proto == PROTO_SNOOPY)
        return map_put(&x->hist[ci], line, 3 /*RESIDENT*/, 0);
    return 0;
}

/* Invalidate `line` in every cluster of `bits`, ascending cluster order
 * (lowest-bit extraction, as in the python kernel). */
static int invalidate(Ctx *x, uint64_t bits, int64_t line) {
    while (bits) {
        int vcl = ctz64(bits);
        bits &= bits - 1;
        Cache *c = &x->ca[vcl];
        int64_t s2;
        if (map_del(&c->slot_of, line, &s2)) {
            if (cache_free_push(c, s2)) return ST_NOMEM;
            lru_unlink(c, s2);
            if (map_put_ordered(&x->hist[vcl], hist_log(x, vcl), line,
                                2 /*COHERENCE*/, 0))
                return ST_NOMEM;
        }
    }
    return 0;
}

/* Full read miss (fresh miss and invalidated-while-pending refetch):
 * classify, directory transaction (owner downgrade on dirty-remote),
 * SHARED install, counters, load stall. */
static int read_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t,
                     int64_t *stall_out) {
    int64_t cause = 0, home, stall;
    map_get(&x->hist[cl], line, &cause, NULL);
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    if (ds == 2) { /* dirty remote owner */
        int owner = ctz64((uint64_t)dm);
        if (owner == cl) return ST_DIRTY_OWNER;
        stall = (cl == home) ? x->l_ldr
                             : (owner == home ? x->l_rc : x->l_rd3);
        /* owner keeps the data but downgrades; the reader joins */
        Cache *oc = &x->ca[owner];
        int64_t s;
        if (map_get(&oc->slot_of, line, &s, NULL)) oc->state[s] = 1;
        if (map_put_ordered(&x->dir, dir_log(x), line, 1,
                            dm | (int64_t)(1ULL << cl)))
            return ST_NOMEM;
    } else {
        stall = (cl == home) ? x->l_lc : x->l_rc;
        if (map_put_ordered(&x->dir, dir_log(x), line, 1,
                            dm | (int64_t)(1ULL << cl)))
            return ST_NOMEM;
    }
    rc = install(x, cl, pid, line, t + stall, 1);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    x->bd[4 * pid + 1] += stall; /* load */
    *stall_out = stall;
    return 0;
}

/* Write miss: fetch exclusive (latency hidden, line left pending),
 * invalidating every other sharer; invalidations_sent counts the whole
 * `others` mask unconditionally, exactly as the python kernel does. */
static int write_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t) {
    int64_t cause = 0, home, latency;
    map_get(&x->hist[cl], line, &cause, NULL);
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    if (ds == 2) { /* dirty remote owner */
        int owner = ctz64((uint64_t)dm);
        if (owner == cl) return ST_DIRTY_OWNER;
        latency = (cl == home) ? x->l_ldr
                               : (owner == home ? x->l_rc : x->l_rd3);
    } else {
        latency = (cl == home) ? x->l_lc : x->l_rc;
    }
    uint64_t others = (uint64_t)dm & ~(1ULL << cl);
    if (others) {
        rc = invalidate(x, others, line);
        if (rc) return rc;
    }
    x->inv_sent += popcount64(others);
    if (map_put_ordered(&x->dir, dir_log(x), line, 2,
                        (int64_t)(1ULL << cl)))
        return ST_NOMEM;
    rc = install(x, cl, pid, line, t + latency, 2);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[3]++;         /* write_misses */
    ct[8 + cause]++; /* by_cause */
    return 0;
}

/* Write hit on a SHARED line: the upgrade invalidates every other
 * sharer and takes the line EXCLUSIVE at the directory. */
static int upgrade(Ctx *x, int cl, int64_t line) {
    x->ctr[(size_t)cl * NCTR + 4]++; /* upgrade_misses */
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    uint64_t others = (uint64_t)dm & ~(1ULL << cl);
    if (others) {
        int rc = invalidate(x, others, line);
        if (rc) return rc;
        x->inv_sent += popcount64(others);
    }
    return map_put_ordered(&x->dir, dir_log(x), line, 2,
                           (int64_t)(1ULL << cl));
}

/* ------------------------------------------------------ DLS and snoopy
 * The cold-path arms of the other two protocols (header: "Protocol
 * seam"); memory.dls.DLSMemorySystem and
 * memory.snoopy.SnoopyClusterMemorySystem, transition for transition. */

/* First cluster-mate of pid (ascending, pid excluded) whose cache holds
 * `line`, pending or not; its slot in *slot.  -1 when none does. */
static int64_t mate_holding(Ctx *x, int cl, int64_t pid, int64_t line,
                            int64_t *slot) {
    int64_t lo = (int64_t)cl * x->csize;
    for (int64_t q = lo; q < lo + x->csize; q++)
        if (q != pid && map_get(&x->ca[q].slot_of, line, slot, NULL))
            return q;
    return -1;
}

/* Snoopy cache.invalidate + the INVALIDATED mark. */
static int drop(Ctx *x, int64_t ci, int64_t line) {
    Cache *c = &x->ca[ci];
    int64_t s;
    if (!map_del(&c->slot_of, line, &s)) return 0;
    if (cache_free_push(c, s)) return ST_NOMEM;
    lru_unlink(c, s);
    return map_put(&x->hist[ci], line, 2 /*INVALIDATED*/, 0);
}

/* Snoopy victim retirement: the directory hears of the victim -- hint or
 * writeback, exactly as for a shared cache -- only when no cluster-mate
 * still holds the line. */
static int snoopy_retire(Ctx *x, int64_t ci, int64_t vline, int64_t vstate) {
    int cl = (int)(ci / x->csize);
    int64_t s;
    if (mate_holding(x, cl, ci, vline, &s) >= 0) return 0;
    return retire(x, cl, vline, vstate);
}

/* Snoopy history mark -> miss cause (RESIDENT classifies CAPACITY). */
static inline int64_t snoopy_cause(Ctx *x, int64_t pid, int64_t line) {
    int64_t mark = 0;
    map_get(&x->hist[pid], line, &mark, NULL);
    return mark == 3 ? 1 : mark;
}

/* Snoopy read miss: a cluster-mate's copy is a cache-to-cache transfer
 * (downgrading an EXCLUSIVE copy, no directory transaction); otherwise a
 * directory transaction plus the bus penalty. */
static int snoopy_read_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                            int64_t t, int64_t *stall_out) {
    int64_t cause = snoopy_cause(x, pid, line), stall, s;
    int64_t q = mate_holding(x, cl, pid, line, &s);
    int rc;
    if (q >= 0) {
        Cache *hc = &x->ca[q];
        if (hc->state[s] == 2) hc->state[s] = 1;
        stall = x->l_c2c;
    } else {
        int64_t home, ds = 0, dm = 0;
        if ((rc = home_of(x, line, &home))) return rc;
        map_get(&x->dir, line, &ds, &dm);
        if (ds == 2 && dm != (int64_t)(1ULL << cl)) {
            /* dirty in another cluster: every EXCLUSIVE copy there
             * downgrades, the reader joins the sharers */
            int owner = 63 - __builtin_clzll((uint64_t)dm);
            if (owner == cl) return ST_DIRTY_OWNER;
            stall = (cl == home) ? x->l_ldr
                                 : (owner == home ? x->l_rc : x->l_rd3);
            int64_t lo = (int64_t)owner * x->csize;
            for (int64_t o = lo; o < lo + x->csize; o++) {
                Cache *oc = &x->ca[o];
                if (map_get(&oc->slot_of, line, &s, NULL) &&
                    oc->state[s] == 2)
                    oc->state[s] = 1;
            }
        } else {
            stall = (cl == home) ? x->l_lc : x->l_rc;
        }
        if (map_put(&x->dir, line, 1, dm | (int64_t)(1ULL << cl)))
            return ST_NOMEM;
        stall += x->snoop_penalty;
    }
    if ((rc = install(x, pid, -1, line, t + stall, 1))) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    x->bd[4 * pid + 1] += stall; /* load */
    *stall_out = stall;
    return 0;
}

/* Snoopy write: invalidate every other copy -- the cluster-mates over
 * the bus, then each other sharer cluster's processors, ascending -- and
 * take the line EXCLUSIVE at the directory. */
static int snoopy_claim(Ctx *x, int cl, int64_t pid, int64_t line) {
    int rc;
    int64_t lo = (int64_t)cl * x->csize;
    for (int64_t q = lo; q < lo + x->csize; q++)
        if (q != pid && (rc = drop(x, q, line))) return rc;
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    uint64_t others = (uint64_t)dm & ~(1ULL << cl);
    for (uint64_t bits = others; bits; bits &= bits - 1) {
        int64_t o = (int64_t)ctz64(bits) * x->csize;
        for (int64_t q = o; q < o + x->csize; q++)
            if ((rc = drop(x, q, line))) return rc;
    }
    x->inv_sent += popcount64(others);
    return map_put(&x->dir, line, 2, (int64_t)(1ULL << cl));
}

static int snoopy_write_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                             int64_t t) {
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[3]++;                               /* write_misses */
    ct[8 + snoopy_cause(x, pid, line)]++; /* by_cause */
    int rc = snoopy_claim(x, cl, pid, line);
    if (rc) return rc;
    int64_t home;
    if ((rc = home_of(x, line, &home))) return rc;
    int64_t latency = ((cl == home) ? x->l_lc : x->l_rc) + x->snoop_penalty;
    return install(x, pid, -1, line, t + latency, 2);
}

/* DLS read miss in the local slice (fresh or merge refetch): a local
 * home fills from local memory; a remote home is a transaction to the
 * home slice, queueing behind a pending fill there or filling it from
 * the home's memory on a slice miss. */
static int dls_read_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                         int64_t t, int64_t *stall_out) {
    int64_t cause = 0, home, stall;
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    map_get(&x->hist[cl], line, &cause, NULL);
    if (home == cl) {
        stall = x->l_lc;
        rc = install(x, cl, pid, line, t + stall, 1);
    } else {
        if (map_put(&x->hist[cl], line, 2 /*COHERENCE*/, 0)) return ST_NOMEM;
        Cache *hc = &x->ca[home];
        int64_t s;
        if (map_get(&hc->slot_of, line, &s, NULL)) {
            if (x->touch) lru_touch(hc, s);
            int64_t queue = hc->pending[s] - t;
            stall = x->l_rc + (queue > 0 ? queue : 0);
        } else {
            stall = x->l_rc + x->l_lc;
            rc = install(x, home, pid, line, t + x->l_lc, 1);
        }
    }
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    x->bd[4 * pid + 1] += stall; /* load */
    *stall_out = stall;
    return 0;
}

/* DLS write miss in the local slice: write-allocate locally, or write
 * through to the home slice (dirtying it, or allocating it there). */
static int dls_write_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                          int64_t t) {
    int64_t cause = 0, home;
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    map_get(&x->hist[cl], line, &cause, NULL);
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[3]++;         /* write_misses */
    ct[8 + cause]++; /* by_cause */
    if (home == cl) return install(x, cl, pid, line, t + x->l_lc, 2);
    if (map_put(&x->hist[cl], line, 2 /*COHERENCE*/, 0)) return ST_NOMEM;
    Cache *hc = &x->ca[home];
    int64_t s;
    if (map_get(&hc->slot_of, line, &s, NULL)) {
        if (x->touch) lru_touch(hc, s);
        hc->state[s] = 2;
        return 0;
    }
    return install(x, home, pid, line, t + x->l_lc, 2);
}

/* The protocol seam's cold-path dispatch. */
static inline int proto_read_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                                  int64_t t, int64_t *stall_out) {
    if (x->proto == PROTO_DIRECTORY)
        return read_miss(x, cl, pid, line, t, stall_out);
    if (x->proto == PROTO_DLS)
        return dls_read_miss(x, cl, pid, line, t, stall_out);
    return snoopy_read_miss(x, cl, pid, line, t, stall_out);
}

static inline int proto_write_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                                   int64_t t) {
    if (x->proto == PROTO_DIRECTORY) return write_miss(x, cl, pid, line, t);
    if (x->proto == PROTO_DLS) return dls_write_miss(x, cl, pid, line, t);
    return snoopy_write_miss(x, cl, pid, line, t);
}

/* Write hit on a non-EXCLUSIVE line; the caller then marks it EXCLUSIVE.
 * DLS has no upgrade: the single copy just turns dirty. */
static inline int proto_upgrade(Ctx *x, int cl, int64_t pid, int64_t line) {
    if (x->proto == PROTO_DIRECTORY) return upgrade(x, cl, line);
    if (x->proto == PROTO_DLS) return 0;
    x->ctr[(size_t)cl * NCTR + 4]++; /* upgrade_misses */
    return snoopy_claim(x, cl, pid, line);
}

/* ---------------------------------------------------------- registry */

typedef struct {
    Barrier *v;
    int64_t n, cap;
    Map ix; /* id -> index (creation order == array order) */
} Barriers;

typedef struct {
    Lock *v;
    int64_t n, cap;
    Map ix;
} Locks;

static int barrier_of(Barriers *bs, int64_t id, int64_t n_procs,
                      Barrier **out) {
    int64_t i;
    if (map_get(&bs->ix, id, &i, NULL)) {
        *out = &bs->v[i];
        return 0;
    }
    if (bs->n == bs->cap) {
        int64_t nc = bs->cap ? bs->cap * 2 : 8;
        Barrier *nv = (Barrier *)realloc(bs->v, nc * sizeof(Barrier));
        if (!nv) return ST_NOMEM;
        bs->v = nv;
        bs->cap = nc;
    }
    Barrier *b = &bs->v[bs->n];
    b->id = id;
    b->episodes = 0;
    b->n_wait = 0;
    b->wpid = (int64_t *)malloc(n_procs * sizeof(int64_t));
    b->warr = (int64_t *)malloc(n_procs * sizeof(int64_t));
    /* bs->n counts only complete barriers, so the cleanup at done: never
     * sees this one: free its arrays here */
    if (!b->wpid || !b->warr || map_put(&bs->ix, id, bs->n, 0)) {
        free(b->wpid);
        free(b->warr);
        return ST_NOMEM;
    }
    bs->n++;
    *out = b;
    return 0;
}

static int lock_of(Locks *ls, int64_t id, Lock **out) {
    int64_t i;
    if (map_get(&ls->ix, id, &i, NULL)) {
        *out = &ls->v[i];
        return 0;
    }
    if (ls->n == ls->cap) {
        int64_t nc = ls->cap ? ls->cap * 2 : 8;
        Lock *nv = (Lock *)realloc(ls->v, nc * sizeof(Lock));
        if (!nv) return ST_NOMEM;
        ls->v = nv;
        ls->cap = nc;
    }
    Lock *lk = &ls->v[ls->n];
    lk->id = id;
    lk->holder = -1;
    lk->acq = 0;
    lk->cont = 0;
    lk->qpid = lk->qarr = NULL;
    lk->qh = lk->qn = lk->qcap = 0;
    if (map_put(&ls->ix, id, ls->n, 0)) return ST_NOMEM;
    ls->n++;
    *out = lk;
    return 0;
}

/* ------------------------------------------------------------ replay */

EXPORT int64_t repro_abi(void) { return ABI; }

EXPORT void repro_release(int64_t *blob) { free(blob); }

/* Zero-copy column contract: ops[p]/args[p] may point straight into a
 * read-mostly file mapping of a v2 trace blob (driver.py hands over the
 * mmap'd addresses; 8-byte aligned, little-endian int64, lens[p] entries).
 * The kernel must only ever READ them — a store would dirty private
 * copy-on-write pages and forfeit the shared-page-cache economics the
 * streaming-trace layer is built on — and must tolerate ops[p] == NULL
 * when lens[p] == 0 (an empty column has no buffer to address).  Access
 * is sequential per processor, which the mapping layer advertises to the
 * OS via MADV_SEQUENTIAL.  The task table (task_ops/task_args/task_lens,
 * n_tasks blocks, each non-empty) follows the same contract. */
EXPORT int64_t repro_replay(
    int64_t proto, /* PROTO_DIRECTORY / PROTO_SNOOPY / PROTO_DLS */
    int64_t n, int64_t ncl, int64_t csize,
    const int64_t **ops, const int64_t **args, const int64_t *lens,
    int64_t n_tasks, const int64_t **task_ops, const int64_t **task_args,
    const int64_t *task_lens,
    int64_t cap, /* capacity lines per cache (cluster, or processor for
                  * snoopy); -1 = infinite */
    int64_t l_lc, int64_t l_rc, int64_t l_ldr, int64_t l_rd3,
    int64_t snoop_penalty, int64_t l_c2c, /* snoopy only */
    int64_t lpp, int64_t rr_next,
    const int64_t *ph_pages, const int64_t *ph_homes, int64_t n_ph,
    int64_t *finish,     /* out: n, -1 = never finished */
    int64_t *bd,         /* out: 4n (cpu, load, merge, sync) */
    int64_t *exec_time,  /* out: 1 */
    int64_t *err,        /* out: 2 (pid / holder for lock errors) */
    int64_t export_private, /* 1: also export the private end state
                             * (directory only; ignored otherwise) */
    int64_t **blob_out, int64_t *blob_len_out) {
    int64_t st = ST_OK;
    Ctx x;
    memset(&x, 0, sizeof(x));
    Barriers bars;
    memset(&bars, 0, sizeof(bars));
    Locks locks;
    memset(&locks, 0, sizeof(locks));
    Sched sq;
    memset(&sq, 0, sizeof(sq));
    int64_t *ipos = NULL, *retry = NULL;
    /* per-processor current column (own or a grabbed task block) and the
     * own-column position to resume at once the table runs dry (-1 while
     * running the own column) */
    const int64_t **cops = NULL, **cargs = NULL;
    int64_t *clen = NULL, *resume = NULL;
    int64_t grabbed = 0;
    Buf blob;
    memset(&blob, 0, sizeof(blob));

    *blob_out = NULL;
    *blob_len_out = 0;
    err[0] = err[1] = -1;
    *exec_time = 0;

    /* snoopy caches are per processor, the others per cluster */
    const int per_proc = proto == PROTO_SNOOPY;
    const int64_t ncache = per_proc ? n : ncl;
    x.n = n;
    x.ncl = ncl;
    x.csize = csize;
    x.cap = cap;
    x.touch = cap >= 0;
    x.proto = (int)proto;
    x.export_private = export_private != 0 && proto == PROTO_DIRECTORY;
    x.lpp = lpp;
    x.rr_next = rr_next;
    x.l_lc = l_lc;
    x.l_rc = l_rc;
    x.l_ldr = l_ldr;
    x.l_rd3 = l_rd3;
    x.snoop_penalty = snoop_penalty;
    x.l_c2c = l_c2c;
    x.bd = bd;

    x.ca = (Cache *)calloc(ncache, sizeof(Cache));
    x.hist = (Map *)calloc(ncache, sizeof(Map));
    x.hist_log = (Buf *)calloc(ncache, sizeof(Buf));
    x.ctr = (int64_t *)calloc(ncl * NCTR, sizeof(int64_t));
    ipos = (int64_t *)calloc(n, sizeof(int64_t));
    retry = (int64_t *)malloc(n * sizeof(int64_t));
    cops = (const int64_t **)malloc(n * sizeof(*cops));
    cargs = (const int64_t **)malloc(n * sizeof(*cargs));
    clen = (int64_t *)malloc(n * sizeof(int64_t));
    resume = (int64_t *)malloc(n * sizeof(int64_t));
    if (!x.ca || !x.hist || !x.hist_log || !x.ctr || !ipos ||
        !retry || !cops || !cargs || !clen || !resume) {
        st = ST_NOMEM;
        goto done;
    }
    if ((st = sched_init(&sq, n))) goto done;
    if ((st = map_init(&x.dir, 1024, 1))) goto done;
    if ((st = map_init(&x.homes, 1024, 0))) goto done;
    if ((st = map_init(&x.pages, 64, 0))) goto done;
    if ((st = map_init(&bars.ix, 16, 0))) goto done;
    if ((st = map_init(&locks.ix, 16, 0))) goto done;
    for (int64_t i = 0; i < ncache; i++) {
        Cache *c = &x.ca[i];
        c->head = c->tail = -1;
        if ((st = map_init(&c->slot_of, x.touch ? (size_t)cap * 2 : 1024,
                           0)))
            goto done;
        if ((st = map_init(&x.hist[i], 256, 0))) goto done;
        if (x.touch) {
            /* finite: preallocated slab, free pops 0, 1, 2, ... */
            if ((st = cache_columns_grow(c, cap))) goto done;
            c->n_slots = cap;
            for (int64_t s = cap - 1; s >= 0; s--)
                if ((st = cache_free_push(c, s))) goto done;
        }
    }
    for (int64_t i = 0; i < n_ph; i++)
        if ((st = map_put(&x.pages, ph_pages[i], ph_homes[i], 0))) goto done;
    for (int64_t p = 0; p < n; p++) {
        finish[p] = -1;
        retry[p] = NO_LINE;
        cops[p] = ops[p];
        cargs[p] = args[p];
        clen[p] = lens[p];
        resume[p] = -1;
    }

    /* initial events: every processor at time 0, in pid order */
    for (int64_t p = 0; p < n; p++) sched_push(&sq, 0, p);
    int64_t n_running = n;

    int64_t t, hz;
    int64_t pid = sched_pop(&sq, &t, &hz);
    int cl = (int)(pid / csize);
    int64_t ci = per_proc ? pid : cl; /* the processor's cache index */
    int64_t *ct = x.ctr + (size_t)cl * NCTR;
    int64_t pending = retry[pid];

    for (;;) {
        int64_t tn = 0;
        int noevent = 0;
        if (pending != NO_LINE) {
            /* ---- retry of a merged read at its fill time */
            Cache *c = &x.ca[ci];
            int64_t slot;
            int found = map_get(&c->slot_of, pending, &slot, NULL);
            if (found) {
                if (x.touch) lru_touch(c, slot);
                int64_t pu = c->pending[slot];
                if (pu > t) {
                    ct[5]++; /* merges */
                    bd[4 * pid + 2] += pu - t;
                    tn = pu;
                } else {
                    int64_t f = c->fetcher[slot];
                    if (f != -1 && f != pid) {
                        ct[7]++; /* prefetch_hits */
                        c->fetcher[slot] = -1;
                    }
                    pending = NO_LINE;
                    retry[pid] = NO_LINE;
                    tn = t + 1;
                }
            } else {
                /* invalidated while pending: refetch (fresh read miss) */
                ct[6]++; /* merge_refetches */
                int64_t stall;
                int rc = proto_read_miss(&x, cl, pid, pending, t, &stall);
                if (rc) {
                    st = rc;
                    err[0] = pid;
                    goto done;
                }
                pending = NO_LINE;
                retry[pid] = NO_LINE;
                tn = t + stall + 1;
            }
        } else {
            /* ---- run ops while strictly ahead of every queued event */
            const int64_t *po = cops[pid];
            const int64_t *pa = cargs[pid];
            int64_t ip = ipos[pid];
            int64_t iplen = clen[pid];
            Cache *c = &x.ca[ci];
            int finished = 0;
            for (;;) {
                if (ip >= iplen) {
                    finished = 1;
                    break;
                }
                int64_t op = po[ip];
                int64_t arg = pa[ip];
                ip++;
                if (op == 1) { /* READ */
                    bd[4 * pid] += 1;
                    ct[0]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot, NULL);
                    if (found) {
                        if (x.touch) lru_touch(c, slot);
                        int64_t pu = c->pending[slot];
                        if (pu > t) {
                            ct[5]++; /* merges */
                            bd[4 * pid + 2] += pu - t;
                            pending = arg;
                            retry[pid] = arg;
                            tn = pu;
                            break; /* no fast path: tail handles tn */
                        }
                        int64_t f = c->fetcher[slot];
                        if (f != -1 && f != pid) {
                            ct[7]++; /* prefetch_hits */
                            c->fetcher[slot] = -1;
                        }
                        tn = t + 1;
                    } else {
                        int64_t stall;
                        int rc = proto_read_miss(&x, cl, pid, arg, t,
                                                 &stall);
                        if (rc) {
                            st = rc;
                            err[0] = pid;
                            goto done;
                        }
                        tn = t + stall + 1;
                    }
                } else if (op == 0) { /* WORK */
                    bd[4 * pid] += arg;
                    tn = t + arg;
                } else if (op == 2) { /* WRITE (never stalls) */
                    bd[4 * pid] += 1;
                    ct[1]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot, NULL);
                    if (found) {
                        if (x.touch) lru_touch(c, slot);
                        if (c->state[slot] != 2) {
                            int rc = proto_upgrade(&x, cl, pid, arg);
                            if (rc) {
                                st = rc;
                                goto done;
                            }
                            c->state[slot] = 2;
                        }
                        tn = t + 1;
                    } else {
                        int rc = proto_write_miss(&x, cl, pid, arg, t);
                        if (rc) {
                            st = rc;
                            err[0] = pid;
                            goto done;
                        }
                        tn = t + 1;
                    }
                } else if (op == 3) { /* BARRIER */
                    Barrier *b;
                    if (barrier_of(&bars, arg, n, &b)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    b->wpid[b->n_wait] = pid;
                    b->warr[b->n_wait] = t;
                    b->n_wait++;
                    if (b->n_wait == n) {
                        b->episodes++;
                        for (int64_t w = 0; w < b->n_wait; w++) {
                            bd[4 * b->wpid[w] + 3] += t - b->warr[w];
                            sched_push(&sq, t, b->wpid[w]);
                        }
                        b->n_wait = 0;
                    }
                    noevent = 1;
                    break;
                } else if (op == 4) { /* LOCK */
                    bd[4 * pid] += 1;
                    Lock *lk;
                    if (lock_of(&locks, arg, &lk)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    if (lk->holder == -1) {
                        lk->holder = pid;
                        lk->acq++;
                        tn = t + 1;
                    } else if (lk->holder == pid) {
                        st = ST_REACQUIRE;
                        err[0] = pid;
                        goto done;
                    } else {
                        if (lock_enqueue(lk, pid, t)) {
                            st = ST_NOMEM;
                            goto done;
                        }
                        noevent = 1;
                        break;
                    }
                } else if (op == 5) { /* UNLOCK */
                    bd[4 * pid] += 1;
                    Lock *lk;
                    if (lock_of(&locks, arg, &lk)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    if (lk->holder != pid) {
                        st = ST_BAD_RELEASE;
                        err[0] = pid;
                        err[1] = lk->holder;
                        goto done;
                    }
                    if (lk->qn) {
                        int64_t np, arr;
                        lock_dequeue(lk, &np, &arr);
                        lk->holder = np;
                        lk->acq++;
                        lk->cont++;
                        /* enqueue order (self, then next holder) fixes
                         * the tie-break at t+1 */
                        sched_push(&sq, t + 1, pid);
                        bd[4 * np + 3] += t - arr;
                        sched_push(&sq, t + 1, np);
                        noevent = 1;
                        break;
                    }
                    lk->holder = -1;
                    tn = t + 1;
                } else { /* GRAB: zero cycles, no scheduling point */
                    int64_t k = grabbed++;
                    if (resume[pid] < 0) resume[pid] = ip;
                    if (k < n_tasks) {
                        po = task_ops[k];
                        pa = task_args[k];
                        iplen = task_lens[k];
                        ip = 0;
                    } else { /* queue empty: back to the own column */
                        po = ops[pid];
                        pa = args[pid];
                        iplen = lens[pid];
                        ip = resume[pid];
                        resume[pid] = -1;
                    }
                    cops[pid] = po;
                    cargs[pid] = pa;
                    clen[pid] = iplen;
                    continue;
                }
                /* ---- fast path: strictly next, stay on this processor */
                if (tn < hz) {
                    t = tn;
                    continue;
                }
                break;
            }
            ipos[pid] = ip;
            if (finished) {
                finish[pid] = t;
                n_running--;
                noevent = 1;
            }
        }

        /* ---- scheduling tail */
        if (noevent) {
            if (!sq.top && !sq.hn) break;
        } else if (tn < hz) { /* retry arm / fresh merge only */
            t = tn;
            continue;
        } else {
            sched_push(&sq, tn, pid);
        }
        pid = sched_pop(&sq, &t, &hz);
        cl = (int)(pid / csize);
        ci = per_proc ? pid : cl;
        ct = x.ctr + (size_t)cl * NCTR;
        pending = retry[pid];
    }

    /* ---- wrap-up (Engine._finalize semantics) */
    if (n_running > 0) {
        st = ST_DEADLOCK; /* state still exported; python raises */
    } else {
        int64_t mx = 0;
        for (int64_t p = 0; p < n; p++)
            if (finish[p] > mx) mx = finish[p];
        *exec_time = mx;
        for (int64_t p = 0; p < n; p++) bd[4 * p + 3] += mx - finish[p];
    }

    /* ---- export (layout mirrored in repro.native.driver): the visible
     * state, then the sync registry on deadlock, then -- on request --
     * the private end state */
    {
        int rc = 0;
#define PUSH(v)                                                            \
    do {                                                                   \
        if ((rc = buf_push(&blob, (int64_t)(v)))) goto export_done;        \
    } while (0)
        PUSH(x.rr_next);
        PUSH(x.ft_n);
        for (int64_t i = 0; i < x.ft_n * 2; i++) PUSH(x.ft[i]);
        for (int64_t i = 0; i < ncl * NCTR; i++) PUSH(x.ctr[i]);
        if (st == ST_DEADLOCK) {
            PUSH(bars.n);
            for (int64_t i = 0; i < bars.n; i++) {
                Barrier *b = &bars.v[i];
                PUSH(b->id);
                PUSH(b->episodes);
                PUSH(b->n_wait);
                for (int64_t w = 0; w < b->n_wait; w++) {
                    PUSH(b->wpid[w]);
                    PUSH(b->warr[w]);
                }
            }
            PUSH(locks.n);
            for (int64_t i = 0; i < locks.n; i++) {
                Lock *lk = &locks.v[i];
                PUSH(lk->id);
                PUSH(lk->holder);
                PUSH(lk->acq);
                PUSH(lk->cont);
                PUSH(lk->qn);
                for (int64_t w = 0; w < lk->qn; w++) {
                    PUSH(lk->qpid[(lk->qh + w) % lk->qcap]);
                    PUSH(lk->qarr[(lk->qh + w) % lk->qcap]);
                }
            }
        }
        if (!x.export_private) goto export_done;
        PUSH(x.inv_sent);
        PUSH(x.repl_hints);
        PUSH(x.writebacks);
        PUSH(x.dir.live);
        /* directory in python-dict order: the log holds one entry per
         * insert event; a deleted-then-reinserted line's latest entry
         * wins (python moves the key to the end), so scan backwards
         * keeping first sightings of live lines, then emit reversed. */
        {
            Map seen;
            Buf ord;
            memset(&ord, 0, sizeof(ord));
            if ((rc = map_init(&seen, (size_t)x.dir.live * 2 + 16, 0))) {
                map_free(&seen); /* a partial init holds some arrays */
                goto export_done;
            }
            for (int64_t i = x.dir_log.n - 1; i >= 0 && !rc; i--) {
                int64_t k = x.dir_log.v[i];
                if (!map_get(&x.dir, k, NULL, NULL)) continue;
                if (map_get(&seen, k, NULL, NULL)) continue;
                if ((rc = map_put(&seen, k, 0, 0))) break;
                rc = buf_push(&ord, k);
            }
            for (int64_t i = ord.n - 1; i >= 0 && !rc; i--) {
                int64_t a = 0, b = 0;
                map_get(&x.dir, ord.v[i], &a, &b);
                if ((rc = buf_push(&blob, ord.v[i]))) break;
                if ((rc = buf_push(&blob, a))) break;
                rc = buf_push(&blob, b);
            }
            map_free(&seen);
            free(ord.v);
            if (rc) goto export_done;
        }
        for (int64_t clx = 0; clx < ncl; clx++) {
            Cache *c = &x.ca[clx];
            PUSH(c->evictions);
            PUSH(c->inserts);
            PUSH(c->n_slots);
            PUSH(c->slot_of.live);
            PUSH(c->free_n);
            /* resident lines in LRU order (head = dict-first) */
            for (int64_t s = c->head; s >= 0; s = c->lnext[s]) {
                PUSH(c->tag[s]);
                PUSH(s);
                PUSH(c->state[s]);
                PUSH(c->pending[s]);
                PUSH(c->fetcher[s]);
            }
            for (int64_t i = 0; i < c->free_n; i++) PUSH(c->free_[i]);
            PUSH(x.hist[clx].live);
            /* insert-only map: the log lists each line exactly once, in
             * python-dict (first-insertion) order */
            for (int64_t i = 0; i < x.hist_log[clx].n; i++) {
                int64_t k = x.hist_log[clx].v[i];
                int64_t cause = 0;
                map_get(&x.hist[clx], k, &cause, NULL);
                PUSH(k);
                PUSH(cause);
            }
        }
#undef PUSH
    export_done:
        if (rc) {
            st = ST_NOMEM;
        } else {
            *blob_out = blob.v;
            *blob_len_out = blob.n;
            blob.v = NULL; /* ownership passes to the caller */
        }
    }

done:
    free(blob.v);
    if (x.ca) {
        for (int64_t i = 0; i < ncache; i++) {
            Cache *c = &x.ca[i];
            map_free(&c->slot_of);
            free(c->state);
            free(c->pending);
            free(c->fetcher);
            free(c->tag);
            free(c->lprev);
            free(c->lnext);
            free(c->free_);
        }
        free(x.ca);
    }
    if (x.hist) {
        for (int64_t i = 0; i < ncache; i++) map_free(&x.hist[i]);
        free(x.hist);
    }
    if (x.hist_log) {
        for (int64_t i = 0; i < ncache; i++) free(x.hist_log[i].v);
        free(x.hist_log);
    }
    free(x.ctr);
    free(x.ft);
    free(x.dir_log.v);
    map_free(&x.dir);
    map_free(&x.homes);
    map_free(&x.pages);
    if (bars.v) {
        for (int64_t i = 0; i < bars.n; i++) {
            free(bars.v[i].wpid);
            free(bars.v[i].warr);
        }
        free(bars.v);
    }
    map_free(&bars.ix);
    if (locks.v) {
        for (int64_t i = 0; i < locks.n; i++) {
            free(locks.v[i].qpid);
            free(locks.v[i].qarr);
        }
        free(locks.v);
    }
    map_free(&locks.ix);
    sched_free(&sq);
    free(ipos);
    free(retry);
    free(cops);
    free(cargs);
    free(clen);
    free(resume);
    return st;
}
