/* Compiled decision loops of the per-ball engines in binlab.processes.
 *
 * binlab_advance() runs one engine until at least `target` balls are
 * allocated.  Random draws arrive in chunks that the Python side supplies
 * through the refill callback, which the loops call at exactly the points
 * where the Python reference engines call their draw source, including
 * the rule that a decision needing k bins discards the rest of a chunk
 * holding fewer than k (a fresh chunk that short is an error).  So both
 * paths consume one stream identically.
 * The Python side checks that every bin or edge index is in range.
 *
 * Loads are doubles.  Unit counts stay exact below 2^53, and weighted sums
 * round exactly as Python floats do, provided the file is compiled without
 * FMA contraction or fast-math (see binlab/kernel.py for the flags).
 */
#include <stdint.h>

typedef int (*refill_fn)(int stream);

enum { BINS = 0, FLOATS = 1, WEIGHTS = 2 };  /* draw streams; BINS carries edges for GRAPH */
enum { OK = 0, REFILL_FAILED = 1, SHORT_CHUNK = 2 };
enum { CHOICE = 0, QUANTILE = 1, TWINNING = 2, PENALTY = 3, RESET = 4, GRAPH = 5 };

typedef struct {
    const void *buf;  /* int64 for BINS, double for FLOATS and WEIGHTS */
    int64_t len;
    int64_t pos;
} stream_t;

typedef struct {
    stream_t s[3];
    refill_fn refill;        /* sets s[stream].buf and .len; nonzero on error */
    double *loads;
    int64_t balls, steps;
    int64_t family, random_ties, unit;
    int64_t d;               /* CHOICE: samples per ball */
    double beta;             /* CHOICE: one-plus-beta mixing probability, or -1 */
    int64_t t;               /* threshold kinds: size of the top-t set */
    int64_t *heap;           /* top-t members, a min-heap on (load, -bin) */
    int64_t *slot;           /* heap index of each bin, -1 for non-members */
    const int64_t *eu, *ev;  /* GRAPH: edge endpoints */
} engine_t;

/* Fetch a new chunk of stream w; it must hold at least `need` draws. */
static int pull(engine_t *e, int w, int64_t need)
{
    if (e->refill(w))
        return REFILL_FAILED;
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
        if (e->unit) { x = 1.0; break; }                                  \
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

/* The load of bin b grew: restore the heap, or let b displace the weakest
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
    e->steps += balls - e->balls;
    e->balls = balls;
    return rc;
}

static int advance_threshold(engine_t *e, int64_t target)
{
    double *L = e->loads;
    const int64_t *slot = e->slot;
    int64_t balls = e->balls, steps = e->steps, b;
    int rc = OK;
    double x;
    while (balls < target) {
        NEXT_BIN(b);
        if (e->family == TWINNING) {
            int64_t add = slot[b] >= 0 ? 1 : 2;
            L[b] += (double)add;
            balls += add;
        } else if (e->family == PENALTY) {
            if (slot[b] < 0) {
                L[b] += 1.0;
                balls += 1;
            } else {
                NEXT_BIN(b);
                L[b] += 2.0;
                balls += 2;
            }
        } else {  /* QUANTILE: a member of the top set is resampled */
            if (slot[b] >= 0)
                NEXT_BIN(b);
            NEXT_WEIGHT(x);
            L[b] += x;
            balls += 1;
        }
        raised(e, b);
        steps++;
    }
done:
    e->balls = balls;
    e->steps = steps;
    return rc;
}

static int advance_reset(engine_t *e, int64_t target)
{
    double *L = e->loads;
    int64_t balls = e->balls, steps = e->steps;
    int rc = OK;
    while (balls < target) {
        NEED(BINS, 2);
        int64_t i1 = INTS(BINS)[0], i2 = INTS(BINS)[1], b;
        e->s[BINS].pos += 2;
        double l1 = L[i1], x, f;
        NEXT_WEIGHT(x);  /* drawn before the tie coin, as in Python */
        if (e->random_ties && l1 == L[i2] && i1 != i2) {
            NEXT_FLOAT(f);
            b = f < 0.5 ? i1 : i2;
        } else
            b = lighter(L, i1, i2);  /* on round-start loads: ball 1 lands after */
        L[i1] = l1 + x;
        NEXT_WEIGHT(x);
        L[b] += x;
        balls += 2;
        steps += 2;
    }
done:
    e->balls = balls;
    e->steps = steps;
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
    e->steps += balls - e->balls;
    e->balls = balls;
    return rc;
}

int binlab_advance(engine_t *e, int64_t target)
{
    switch (e->family) {
    case CHOICE:
        return advance_choice(e, target);
    case QUANTILE:
    case TWINNING:
    case PENALTY:
        return advance_threshold(e, target);
    case RESET:
        return advance_reset(e, target);
    default:
        return advance_graph(e, target);
    }
}
