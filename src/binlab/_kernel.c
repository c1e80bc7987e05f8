/* Compiled decision loops of the per-ball engines in binlab.processes, the
 * batched rounds (numpy's multinomial draw of each round's rank counts, and
 * the round's ranking), and the exact row sums of binlab.potentials.
 *
 * binlab_advance() runs one engine until at least `target` balls are
 * allocated.  Random draws arrive in chunks.  A seeded engine draws them
 * itself, on the run's own bit generator, with the numpy functions that
 * processes._ChunkSource reaches through Generator (fill(), below).  A
 * scripted engine (no bit generator: the tests' and selftest's scripts) is
 * handed each stream whole, as one chunk that kernel.py has range-checked.
 * No Python runs inside the call.  The loops read the draws in the order of
 * the draw protocol that processes._Draws defines for the exact path
 * `step`, including its rule that a decision needing k bins discards the
 * rest of a chunk holding fewer than k (a fresh chunk that short is an
 * error).  So both paths consume one stream identically, and a script
 * fails on both at the same draw.
 *
 * Loads are doubles.  Unit counts stay exact below 2^53, and weighted sums
 * round exactly as Python floats do, provided the file is compiled without
 * FMA contraction or fast-math (see binlab/kernel.py for the flags).
 *
 * The file keeps no global mutable state: every call works only on the
 * engine, arrays and buffers it is handed, so engines on different threads
 * may run at once (binlab.experiments fans sweeps out that way).
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>

/* Mirror of bitgen_t (numpy/random/bitgen.h), whose header needs Python.h. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's samplers (numpy/random/distributions.h), from libnpyrandom.a; its
 * npy_intp is intptr_t. */
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
int64_t random_geometric(bitgen_t *bitgen_state, double p);
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

enum { BINS = 0, FLOATS = 1, WEIGHTS = 2 };  /* draw streams; BINS carries edges for GRAPH */
enum { OK = 0, SHORT_CHUNK = 1, NO_MEMORY = 2, EXHAUSTED = 3 };  /* EXHAUSTED + stream */
enum { CHOICE = 0, QUANTILE = 1, TWINNING = 2, PENALTY = 3, RESET = 4, GRAPH = 5 };
enum { UNIT = 0, EXP1 = 1, GEOM = 2, POISSON = 3 };  /* weight laws, as weights.KINDS */

typedef struct {
    void *buf;  /* int64 for BINS, double for FLOATS and WEIGHTS */
    int64_t len;
    int64_t pos;
} stream_t;

typedef struct {
    stream_t s[3];           /* the engine's buffers, refilled whole, or the script */
    bitgen_t *bitgen;        /* the run's bit generator, or NULL for a script */
    int64_t bound;           /* with bitgen: BINS draws lie in [0, bound) */
    double param;            /* with bitgen: the weight law's p (GEOM) or l (POISSON) */
    double *loads;
    int64_t n, balls;
    int64_t family, random_ties, law;  /* law: the weight law */
    int64_t d;               /* CHOICE: samples per ball */
    double beta;             /* CHOICE: one-plus-beta mixing probability, or -1 */
    int64_t t;               /* threshold kinds: size of the top-t set */
    double wl;               /* unit weights: load and id of the top set's */
    int64_t wc;              /* weakest member, which fixes the whole set */
    int64_t *heap;           /* weighted QUANTILE: top-t members, a min-heap on (load, -bin) */
    int64_t *slot;           /* weighted QUANTILE: heap index of each bin, -1 for non-members */
    const int64_t *eu, *ev;  /* GRAPH: edge endpoints */
} engine_t;

/* A whole chunk of stream w from the run's bit generator, drawn as
 * processes._ChunkSource draws it through numpy 2.4.6's Generator:
 * integers(0, bound, size) is random_bounded_uint64_fill(0, bound - 1,
 * unmasked), random(size) the uniform fill, standard_exponential(size) the
 * exponential fill, and geometric(p, size) and poisson(l, size) one call per
 * draw, which weights.WeightDistribution.sample scales to mean one. */
static void fill(engine_t *e, int w)
{
    bitgen_t *g = e->bitgen;
    int64_t len = e->s[w].len;
    double *x = e->s[w].buf, p = e->param;
    if (w == BINS)
        random_bounded_uint64_fill(g, 0, (uint64_t)(e->bound - 1), len, false, e->s[w].buf);
    else if (w == FLOATS)
        random_standard_uniform_fill(g, len, x);
    else if (e->law == EXP1)
        random_standard_exponential_fill(g, len, x);
    else if (e->law == GEOM)
        for (int64_t i = 0; i < len; i++)
            x[i] = (double)random_geometric(g, p) * p;
    else
        for (int64_t i = 0; i < len; i++)
            x[i] = (double)random_poisson(g, p) / p;
}

/* Fetch a new chunk of stream w; it must hold at least `need` draws.  A
 * script has no other chunk: its one was too short for the first decision,
 * or is spent or empty, as processes._Draws finds on a _ScriptSource. */
static int pull(engine_t *e, int w, int64_t need)
{
    if (!e->bitgen)
        return e->s[w].pos == 0 && e->s[w].len > 0 ? SHORT_CHUNK : EXHAUSTED + w;
    fill(e, w);
    e->s[w].pos = 0;
    return e->s[w].len < need ? SHORT_CHUNK : OK;
}

/* Make k draws of stream w available, or leave the loop with an error
 * code in rc. */
#define NEED(w, k)                                                        \
    do {                                                                  \
        if (e->s[w].pos + (k) > e->s[w].len && (rc = pull(e, w, k)))      \
            goto done;                                                    \
    } while (0)
#define INTS(w) ((const int64_t *)e->s[w].buf + e->s[w].pos)
#define DBLS(w) ((const double *)e->s[w].buf + e->s[w].pos)

#define NEXT_BIN(b)                                                       \
    do {                                                                  \
        NEED(BINS, 1);                                                    \
        b = *INTS(BINS);                                                  \
        e->s[BINS].pos++;                                                 \
    } while (0)
#define NEXT_FLOAT(f)                                                     \
    do { NEED(FLOATS, 1); f = *DBLS(FLOATS); e->s[FLOATS].pos++; } while (0)
#define NEXT_WEIGHT(x)                                                    \
    do {                                                                  \
        if (e->law == UNIT) { x = 1.0; break; }                           \
        NEED(WEIGHTS, 1);                                                 \
        x = *DBLS(WEIGHTS);                                               \
        e->s[WEIGHTS].pos++;                                              \
    } while (0)

/* Bin a is weaker than bin b: lighter, or as heavy with a higher id.  The
 * weakest member leaves the top set first, and the weaker of two samples
 * gets the ball (the higher-index tie rule). */
static inline int weaker(const double *L, int64_t a, int64_t b)
{
    return (L[a] < L[b]) | ((L[a] == L[b]) & (a > b));
}

/* The weaker of bins i and j, chosen by a mask, not a branch: which one is
 * lighter is a coin flip to the branch predictor. */
static inline int64_t lighter(const double *L, int64_t i, int64_t j)
{
    int64_t take_i = -(int64_t)weaker(L, i, j);
    return (i & take_i) | (j & ~take_i);
}

static void sift_down(engine_t *e, int64_t i)
{
    const double *L = e->loads;
    int64_t *h = e->heap, *slot = e->slot, t = e->t, x = h[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= t)
            break;
        if (c + 1 < t)
            c += weaker(L, h[c + 1], h[c]);
        if (!weaker(L, h[c], x))
            break;
        h[i] = h[c];
        slot[h[i]] = i;
        i = c;
    }
    h[i] = x;
    slot[x] = i;
}

/* Weighted quantile keeps its top-t members in a heap on (load, -bin):
 * its loads rarely tie, so nearly every change of the top set would take
 * the weakest-member pointer's O(n) pass (see advance_threshold).
 * The load of bin b grew: restore the heap, or let b displace the weakest
 * member when it now beats it.  Only b changed, so one swap keeps the set
 * exactly the top t ranks. */
static void raised(engine_t *e, int64_t b)
{
    if (e->slot[b] >= 0) {
        sift_down(e, e->slot[b]);
    } else if (weaker(e->loads, e->heap[0], b)) {
        e->slot[e->heap[0]] = -1;
        e->heap[0] = b;
        sift_down(e, 0);
    }
}

static inline int first_seen(const int64_t *c, int64_t i)
{
    for (int64_t j = 0; j < i; j++)
        if (c[j] == c[i])
            return 0;
    return 1;
}

static int advance_choice(engine_t *e, int64_t target)
{
    double *L = e->loads;
    int64_t balls = e->balls;
    int rc = OK;
    while (balls < target) {
        int64_t k = e->d, b;
        double f, x;
        if (e->beta >= 0) {
            NEXT_FLOAT(f);
            k = 1 + (f < e->beta);
        }
        NEED(BINS, k);
        const int64_t *c = INTS(BINS);
        e->s[BINS].pos += k;
        b = c[0];
        if (k <= 2) {  /* with k = 1, j is b itself */
            int64_t j = c[k - 1];
            if (e->random_ties && L[b] == L[j] && b != j) {
                NEXT_FLOAT(f);
                b = f < 0.5 ? b : j;
            } else
                b = lighter(L, b, j);
        } else if (!e->random_ties) {
            for (int64_t i = 1; i < k; i++)
                b = lighter(L, c[i], b);
        } else {
            /* a coin picks among the distinct lightest candidates, taken
             * in order of first appearance */
            double bl = L[c[0]];
            int64_t m = 0, pick = 0;
            for (int64_t i = 1; i < k; i++)
                if (L[c[i]] < bl)
                    bl = L[c[i]];
            for (int64_t i = 0; i < k; i++)
                m += L[c[i]] == bl && first_seen(c, i);
            if (m > 1) {
                NEXT_FLOAT(f);
                pick = (int64_t)(f * (double)m);
                if (pick > m - 1)
                    pick = m - 1;
            }
            for (int64_t i = 0;; i++)
                if (L[c[i]] == bl && first_seen(c, i) && pick-- == 0) {
                    b = c[i];
                    break;
                }
        }
        NEXT_WEIGHT(x);
        L[b] += x;
        balls++;
    }
done:
    e->balls = balls;
    return rc;
}

/* Threshold kinds: is the sampled bin among the t heaviest?
 *
 * With unit weights the top set is fixed by its weakest member (wl, wc)
 * in the order heavier first, then lower id: a bin is a member when it is
 * at least as strong.  Only the bin a ball lands on changes, so the set
 * changes only when that bin rises above the weakest member, from below
 * or from being it.  The new weakest member is then the weakest bin above
 * the old one: the next lower id at load wl, or else the highest id at
 * the lowest load above wl, which for whole loads is nearly always
 * wl + 1.  Within one wl, wc only moves down, and wl rises about once per
 * n balls, so the upkeep is amortised O(1) per ball.
 */

/* Bin b at load l is stronger than the weakest member (wl, wc). */
static inline int above(double l, int64_t b, double wl, int64_t wc)
{
    return (l > wl) | ((l == wl) & (b < wc));
}

/* The highest id at or below i whose load is exactly l, or -1. */
static inline int64_t highest_at(const double *L, int64_t i, double l)
{
    while (i >= 0 && L[i] != l)
        i--;
    return i;
}

/* The weakest bin above (*wl, *wc), which moves there. */
static void next_weakest(const double *L, int64_t n, double *wl, int64_t *wc)
{
    int64_t i = highest_at(L, *wc - 1, *wl);
    if (i < 0) {
        double up = *wl + 1.0;  /* loads are whole: most often the next one up */
        i = highest_at(L, n - 1, up);
        if (i < 0) {
            up = INFINITY;
            for (int64_t j = 0; j < n; j++)
                up = L[j] > *wl && L[j] < up ? L[j] : up;
            i = highest_at(L, n - 1, up);
        }
        *wl = up;
    }
    *wc = i;
}

static int advance_threshold(engine_t *e, int64_t target)
{
    double *L = e->loads, wl = e->wl;
    int64_t balls = e->balls, wc = e->wc, b, add;
    int rc = OK;
    while (balls < target) {
        NEXT_BIN(b);
        int member = above(L[b], b, wl, wc) | (b == wc);
        add = 1;
        if (e->family == TWINNING) {
            add += !member;
        } else if (member) {  /* resampled: quantile's one ball, penalty's two */
            NEXT_BIN(b);
            add += e->family == PENALTY;
        }
        double l = L[b];
        L[b] = l + (double)add;
        if (!above(l, b, wl, wc) & above(L[b], b, wl, wc))
            next_weakest(L, e->n, &wl, &wc);
        balls += add;
    }
done:
    e->balls = balls;
    e->wl = wl;
    e->wc = wc;
    return rc;
}

static int advance_weighted_quantile(engine_t *e, int64_t target)
{
    double *L = e->loads;
    int64_t balls = e->balls, b;
    int rc = OK;
    double x;
    while (balls < target) {
        NEXT_BIN(b);
        if (e->slot[b] >= 0)
            NEXT_BIN(b);
        NEXT_WEIGHT(x);
        L[b] += x;
        balls++;
        raised(e, b);
    }
done:
    e->balls = balls;
    return rc;
}

static int advance_reset(engine_t *e, int64_t target)
{
    double *L = e->loads;
    int64_t balls = e->balls;
    int rc = OK;
    while (balls < target) {
        NEED(BINS, 2);
        int64_t i1 = INTS(BINS)[0], i2 = INTS(BINS)[1], b;
        e->s[BINS].pos += 2;
        double x1, x2, f;
        NEXT_WEIGHT(x1);  /* drawn before the tie coin, as in Python */
        if (e->random_ties && L[i1] == L[i2] && i1 != i2) {
            NEXT_FLOAT(f);
            b = f < 0.5 ? i1 : i2;
        } else
            b = lighter(L, i1, i2);  /* on round-start loads: both balls land after */
        NEXT_WEIGHT(x2);
        L[i1] += x1;
        L[b] += x2;
        balls += 2;
    }
done:
    e->balls = balls;
    return rc;
}

static int advance_graph(engine_t *e, int64_t target)
{
    double *L = e->loads;
    int64_t balls = e->balls;
    int rc = OK;
    while (balls < target) {
        int64_t k, b;
        NEXT_BIN(k);  /* an edge index */
        int64_t u = e->eu[k], v = e->ev[k];
        double x, f;
        if (e->random_ties && L[u] == L[v]) {
            NEXT_FLOAT(f);
            b = f < 0.5 ? u : v;
        } else
            b = lighter(L, u, v);
        NEXT_WEIGHT(x);
        L[b] += x;
        balls++;
    }
done:
    e->balls = balls;
    return rc;
}

int binlab_advance(engine_t *e, int64_t target)
{
    switch (e->family) {
    case CHOICE:
        return advance_choice(e, target);
    case QUANTILE:
        if (e->law != UNIT)
            return advance_weighted_quantile(e, target);
        /* fall through */
    case TWINNING:
    case PENALTY:
        return advance_threshold(e, target);
    case RESET:
        return advance_reset(e, target);
    default:
        return advance_graph(e, target);
    }
}

/* The size of engine_t, which kernel.py's ctypes mirror must match. */
int64_t binlab_engine_size(void)
{
    return (int64_t)sizeof(engine_t);
}

/* Batched rounds: binlab_batched_rounds() runs `rounds` rounds of b unit
 * balls on the n loads.  Each round draws one multinomial row of rank
 * counts and adds count k to the bin of rank k in that round's starting
 * loads, where rank 0 is the heaviest bin and ties go by ascending id, as
 * in processes._batched_round.
 *
 * The row is numpy's Generator.multinomial(b, pv), bit for bit and draw for
 * draw on the same bit generator: numpy's random_multinomial and the
 * dispatch of its random_binomial, with the inversion sampler inline and
 * random_binomial_btpe from numpy's own libnpyrandom.a.  The values numpy
 * recomputes per category on every call depend only on pv and come in
 * precomputed `tables` (kernel.multinomial_tables): four rows of n,
 *   PC  pv[j] / remaining, remaining = 1 - pv[0] - ... - pv[j-1] in order;
 *   PP  PC if PC <= 0.5, else 1 - PC: the side random_binomial draws;
 *   QQ  1 - PP;
 *   LQ  log1p(-PP), so that the inversion's P(X = 0) is exp(dn * LQ).
 *
 * The loads must be whole numbers, as unit balls keep them.  While a
 * round's spread (heaviest minus lightest) is below COUNT_SORT_SPREAD, the
 * ranking is a counting sort on each bin's distance below the heaviest:
 * O(n + spread), and stable, so ties keep ascending id.  Each bin's rank is
 * known as soon as it is visited, so its count is added in the same pass.
 * Wider spreads use a comparison sort of (load, id) pairs.
 */
#define COUNT_SORT_SPREAD 65536.0
#define MIN(x, y) (((x) < (y)) ? (x) : (y))

/* Mirror of binomial_t (numpy/random/distributions.h). */
typedef struct {
    int has_binomial;
    double psave;
    int64_t nsave;
    double r, q, fm;
    int64_t m;
    double p1, xm, xl, xr, c, laml, lamr, p2, p3, p4;
} binomial_t;

int64_t random_binomial_btpe(bitgen_t *bitgen_state, int64_t n, double p,
                             binomial_t *binomial);

enum { PC = 0, PP = 1, QQ = 2, LQ = 3 };  /* rows of the draw tables */

/* numpy's random_binomial_inversion(n, p) with q = 1 - p and lq =
 * log1p(-p) given.  It restarts once X passes min(n, np + 10 sqrt(npq +
 * 1)); for npq >= 0 that is never below min(n, np + 10), so the sqrt waits
 * until X passes that. */
static int64_t inversion(bitgen_t *g, int64_t n, double p, double q, double lq)
{
    double qn = exp((double)n * lq), np = (double)n * p, px = qn;
    double U = g->next_double(g->state);
    int64_t X = 0, bound = np * q >= 0 ? (int64_t)MIN((double)n, np + 10.0) : INT64_MIN;
    int exact = 0;
    while (U > px) {
        X++;
        if (X > bound && !exact) {
            bound = (int64_t)MIN((double)n, np + 10.0 * sqrt(np * q + 1));
            exact = 1;
        }
        if (X > bound) {
            X = 0;
            px = qn;
            U = g->next_double(g->state);
        } else {
            U -= px;
            px = ((double)(n - X + 1) * p * px) / ((double)X * q);
        }
    }
    return X;
}

/* One row of rank counts, as numpy's random_multinomial(b, pv) draws it. */
static void draw_counts(bitgen_t *g, const double *t, int64_t n, int64_t b,
                        int64_t *c, binomial_t *bin)
{
    const double *pc = t + PC * n, *pp = t + PP * n, *qq = t + QQ * n, *lq = t + LQ * n;
    int64_t dn = b;
    for (int64_t j = 0; j < n; j++)
        c[j] = 0;
    for (int64_t j = 0; j < n - 1; j++) {
        int64_t x = 0;
        if (pc[j] != 0.0) {  /* random_binomial: no draw for p = 0 */
            x = (double)dn * pp[j] <= 30.0 ? inversion(g, dn, pp[j], qq[j], lq[j])
                                           : random_binomial_btpe(g, dn, pp[j], bin);
            if (!(pc[j] <= 0.5))
                x = dn - x;
        }
        c[j] = x;
        dn -= x;
        if (dn <= 0)
            break;
    }
    if (dn > 0)
        c[n - 1] = dn;
}

typedef struct {
    double load;
    int64_t id;
} ranked_t;

/* Heaviest first, then ascending id. */
static int by_rank(const void *pa, const void *pb)
{
    const ranked_t *a = pa, *b = pb;
    if (a->load != b->load)
        return a->load < b->load ? 1 : -1;
    return (a->id > b->id) - (a->id < b->id);
}

/* Buffers of one binlab_batched_rounds call, grown on demand. */
typedef struct {
    int64_t *start;   /* counting sort: first rank of each distance below the top */
    int64_t cap;
    ranked_t *pairs;  /* comparison sort: n (load, id) pairs */
} buffers_t;

static int batched_round(double *L, int64_t n, const int64_t *c, buffers_t *s)
{
    double top = L[0], low = L[0];
    for (int64_t i = 1; i < n; i++) {
        top = L[i] > top ? L[i] : top;
        low = L[i] < low ? L[i] : low;
    }
    if (top - low < COUNT_SORT_SPREAD) {
        int64_t width = (int64_t)(top - low) + 1;
        if (width > s->cap) {
            int64_t *grown = realloc(s->start, (size_t)width * sizeof *grown);
            if (!grown)
                return NO_MEMORY;
            s->start = grown;
            s->cap = width;
        }
        int64_t *start = s->start;
        for (int64_t k = 0; k < width; k++)
            start[k] = 0;
        for (int64_t i = 0; i < n; i++)
            start[(int64_t)(top - L[i])]++;
        for (int64_t k = 0, pos = 0; k < width; k++) {
            int64_t h = start[k];
            start[k] = pos;
            pos += h;
        }
        for (int64_t i = 0; i < n; i++)
            L[i] += (double)c[start[(int64_t)(top - L[i])]++];
        return OK;
    }
    if (!s->pairs && !(s->pairs = malloc((size_t)n * sizeof *s->pairs)))
        return NO_MEMORY;
    ranked_t *p = s->pairs;
    for (int64_t i = 0; i < n; i++) {
        p[i].load = L[i];
        p[i].id = i;
    }
    qsort(p, (size_t)n, sizeof *p, by_rank);
    for (int64_t k = 0; k < n; k++)
        L[p[k].id] += (double)c[k];
    return OK;
}

int binlab_batched_rounds(bitgen_t *bitgen, const double *tables, int64_t b,
                          int64_t rounds, double *loads, int64_t n)
{
    buffers_t s = {0};
    binomial_t bin = {0};  /* random_binomial_btpe's set-up, keyed by (n, p) */
    int64_t *counts = malloc((size_t)n * sizeof *counts);
    int rc = counts ? OK : NO_MEMORY;
    for (int64_t r = 0; r < rounds && rc == OK; r++) {
        draw_counts(bitgen, tables, n, b, counts, &bin);
        rc = batched_round(loads, n, counts, &s);
    }
    free(counts);
    free(s.start);
    free(s.pairs);
    return rc;
}

/* Exactly rounded row sums: binlab_fsum_rows() writes to out[r] the sum of
 * row r of a rows x cols matrix, as CPython's math.fsum computes it
 * (Modules/mathmodule.c): Shewchuk's non-overlapping partials, then the
 * sum of the partials from the top with a round-half-even fix-up across
 * them.  Both use only additions, subtractions and comparisons, so the
 * result is math.fsum's bit for bit.
 *
 * A row is declined, with NAN in out[r], when the running sum leaves the
 * finite range (an inf or nan summand, or an intermediate overflow, which
 * math.fsum answers with a special value or an exception) or when it needs
 * more than FSUM_PARTIALS partials (math.fsum grows its array; finite rows
 * rarely need more than a handful).  The caller sums those rows with
 * math.fsum.  Returns the number of declined rows.
 */
#define FSUM_PARTIALS 64

static int fsum_row(const double *a, int64_t len, double *sum)
{
    double p[FSUM_PARTIALS];
    int n = 0;
    for (int64_t k = 0; k < len; k++) {
        double x = a[k];
        int i = 0;
        for (int j = 0; j < n; j++) {
            double y = p[j];
            if (fabs(x) < fabs(y)) {
                double t = x;
                x = y;
                y = t;
            }
            double hi = x + y;
            double lo = y - (hi - x);
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x) || n == FSUM_PARTIALS)
                return 0;
            p[n++] = x;
        }
    }
    double hi = 0.0, lo = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            double x = hi, y = p[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            double y = lo * 2.0, x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    *sum = hi;
    return 1;
}

int64_t binlab_fsum_rows(const double *a, int64_t rows, int64_t cols, double *out)
{
    int64_t declined = 0;
    for (int64_t r = 0; r < rows; r++) {
        if (!fsum_row(a + r * cols, cols, out + r)) {
            out[r] = NAN;
            declined++;
        }
    }
    return declined;
}
