/* Martinez–Rueda boolean-op kernel, native implementation.
 *
 * Operation-for-operation port of the Python kernel in ../geom/ (which
 * is itself bit-for-bit conformant with the reference corpus):
 *   - Shewchuk adaptive orient2d (exact sign)        geom/predicates.py
 *   - event comparator (inverted Ord) + Rust-std
 *     BinaryHeap sift order                          geom/sweep_event.py
 *   - top-down splay status line                     geom/splay.py
 *   - compare_segments                               geom/compare_segments.py
 *   - segment intersection (float-for-float)         geom/segment_intersection.py
 *   - divide/possible_intersection (ULP nudge)       geom/possible_intersection.py
 *   - compute_fields / in_result                     geom/compute_fields.py
 *   - order_events / iteration map / connect_edges   geom/connect_edges.py
 *
 * Compile WITHOUT fp-contraction (-ffp-contract=off) and without
 * unsafe math so double arithmetic is IEEE op-for-op identical to
 * CPython.  -O3 is fine under those two flags; -march=native is not
 * used, so one build runs on every node that shares the file.
 *
 * martinez_batch allocates per call, not per pair: one Workspace holds
 * the event and splay-node pools, the queue, the sorted events, the
 * output contours and connect_edges' arrays.  Each pair resets their
 * counts and keeps their buffers; the call frees them once at its end.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------ types */

typedef struct Event Event;
struct Event {
    double x, y;
    Event *other;            /* other_event (may be NULL) */
    Event *prev_in_result;   /* may be NULL */
    int32_t contour_id;
    int32_t output_contour_id;   /* -1 = unset */
    int64_t other_pos;
    uint8_t left;
    uint8_t is_subject;
    uint8_t is_exterior_ring;
    uint8_t edge_type;           /* 0 normal, 1 non-contrib, 2 same, 3 diff */
    uint8_t in_out;
    uint8_t other_in_out;
    uint8_t result_transition;   /* 0 none, 1 in-out, 2 out-in */
};

enum { EDGE_NORMAL = 0, EDGE_NON_CONTRIBUTING = 1, EDGE_SAME_TRANSITION = 2,
       EDGE_DIFFERENT_TRANSITION = 3 };
enum { TRANS_NONE = 0, TRANS_IN_OUT = 1, TRANS_OUT_IN = 2 };
enum { OP_INTERSECTION = 0, OP_DIFFERENCE = 1, OP_UNION = 2, OP_XOR = 3 };

/* ------------------------------------------------------------ bump pools */

/* Chunks of POOL_CHUNK fixed-size items: the sweep's events and its
 * splay nodes.  Items live until the pair is done; pool_reset keeps
 * every chunk for the next pair and rewinds the bump index, so chunks
 * are allocated once per batch call and freed once at its end. */
typedef struct {
    char **chunks;
    int64_t n_chunks, cap_chunks;
    int64_t cur;                 /* chunk being filled, -1 before the first */
    int64_t used_in_cur;         /* items used in chunks[cur] */
    size_t item_size;
} Pool;

#define POOL_CHUNK 4096

static void *pool_alloc(Pool *p) {
    if (p->cur < 0 || p->used_in_cur == POOL_CHUNK) {
        if (++p->cur == p->n_chunks) {
            if (p->n_chunks == p->cap_chunks) {
                p->cap_chunks = p->cap_chunks ? p->cap_chunks * 2 : 8;
                p->chunks = (char **)realloc(p->chunks, p->cap_chunks * sizeof(char *));
            }
            p->chunks[p->n_chunks++] = (char *)malloc(POOL_CHUNK * p->item_size);
        }
        p->used_in_cur = 0;
    }
    return p->chunks[p->cur] + p->item_size * p->used_in_cur++;
}

static void pool_reset(Pool *p) {
    p->cur = -1;
    p->used_in_cur = 0;
}

static void pool_free(Pool *p) {
    for (int64_t i = 0; i < p->n_chunks; i++) free(p->chunks[i]);
    free(p->chunks);
}

static Event *arena_new_event(Pool *arena) {
    Event *e = (Event *)pool_alloc(arena);
    memset(e, 0, sizeof(Event));
    e->output_contour_id = -1;
    return e;
}

/* --------------------------------------------------- Shewchuk predicates */

static const double EPS = 1.1102230246251565e-16;
static const double SPLITTER = 134217729.0;
#define RESULTERRBOUND ((3.0 + 8.0 * EPS) * EPS)
#define CCWERRBOUND_A ((3.0 + 16.0 * EPS) * EPS)
#define CCWERRBOUND_B ((2.0 + 12.0 * EPS) * EPS)
#define CCWERRBOUND_C ((9.0 + 64.0 * EPS) * EPS * EPS)

static void two_sum(double a, double b, double *x, double *y) {
    double s = a + b;
    double bvirt = s - a;
    double avirt = s - bvirt;
    double bround = b - bvirt;
    double around = a - avirt;
    *x = s; *y = around + bround;
}

static void two_diff(double a, double b, double *x, double *y) {
    double s = a - b;
    double bvirt = a - s;
    double avirt = s + bvirt;
    double bround = bvirt - b;
    double around = a - avirt;
    *x = s; *y = around + bround;
}

static double two_diff_tail(double a, double b, double x) {
    double bvirt = a - x;
    double avirt = x + bvirt;
    double bround = bvirt - b;
    double around = a - avirt;
    return around + bround;
}

static void two_product(double a, double b, double *x, double *y) {
    double p = a * b;
    double c = SPLITTER * a;
    double abig = c - a;
    double ahi = c - abig;
    double alo = a - ahi;
    double c2 = SPLITTER * b;
    double bbig = c2 - b;
    double bhi = c2 - bbig;
    double blo = b - bhi;
    double err1 = p - (ahi * bhi);
    double err2 = err1 - (alo * bhi);
    double err3 = err2 - (ahi * blo);
    *x = p; *y = (alo * blo) - err3;
}

static void two_one_diff(double a1, double a0, double b,
                         double *x2, double *x1, double *x0) {
    double i_, t0;
    two_diff(a0, b, &i_, &t0);
    *x0 = t0;
    two_sum(a1, i_, x2, x1);
}

static void two_two_diff(double a1, double a0, double b1, double b0,
                         double *x3, double *x2, double *x1, double *x0) {
    double j_, t0_, t1_;
    two_one_diff(a1, a0, b0, &j_, &t0_, x0);
    two_one_diff(j_, t0_, b1, x3, x2, x1);
    *x1 = *x1; /* keep */
    /* outputs: x3 x2 x1 x0 */
    (void)t1_;
}

/* fast_expansion_sum_zeroelim on fixed buffers; returns hlen */
static int fes_zeroelim(const double *e, int elen, const double *f, int flen,
                        double *h) {
    double Q, Qnew, hh, enow, fnow;
    int eindex = 0, findex = 0, hindex = 0;
    enow = e[0];
    fnow = f[0];
    if ((fnow > enow) == (fnow > -enow)) {
        Q = enow;
        eindex = 1;
        enow = (eindex < elen) ? e[eindex] : 0.0;
    } else {
        Q = fnow;
        findex = 1;
        fnow = (findex < flen) ? f[findex] : 0.0;
    }
    if (eindex < elen && findex < flen) {
        if ((fnow > enow) == (fnow > -enow)) {
            two_sum(enow, Q, &Qnew, &hh);
            eindex++;
            enow = (eindex < elen) ? e[eindex] : 0.0;
        } else {
            two_sum(fnow, Q, &Qnew, &hh);
            findex++;
            fnow = (findex < flen) ? f[findex] : 0.0;
        }
        Q = Qnew;
        if (hh != 0.0) h[hindex++] = hh;
        while (eindex < elen && findex < flen) {
            if ((fnow > enow) == (fnow > -enow)) {
                two_sum(Q, enow, &Qnew, &hh);
                eindex++;
                enow = (eindex < elen) ? e[eindex] : 0.0;
            } else {
                two_sum(Q, fnow, &Qnew, &hh);
                findex++;
                fnow = (findex < flen) ? f[findex] : 0.0;
            }
            Q = Qnew;
            if (hh != 0.0) h[hindex++] = hh;
        }
    }
    while (eindex < elen) {
        two_sum(Q, enow, &Qnew, &hh);
        eindex++;
        enow = (eindex < elen) ? e[eindex] : 0.0;
        Q = Qnew;
        if (hh != 0.0) h[hindex++] = hh;
    }
    while (findex < flen) {
        two_sum(Q, fnow, &Qnew, &hh);
        findex++;
        fnow = (findex < flen) ? f[findex] : 0.0;
        Q = Qnew;
        if (hh != 0.0) h[hindex++] = hh;
    }
    if (Q != 0.0 || hindex == 0) h[hindex++] = Q;
    return hindex;
}

static double orient2d_adapt(double ax, double ay, double bx, double by,
                             double cx, double cy, double detsum) {
    double acx = ax - cx, bcx = bx - cx, acy = ay - cy, bcy = by - cy;
    double detleft, detlefttail, detright, detrighttail;
    double B[4], C1[8], C2[12], D[16], u[4];
    double det, errbound;
    int c1len, c2len, dlen;

    two_product(acx, bcy, &detleft, &detlefttail);
    two_product(acy, bcx, &detright, &detrighttail);
    two_two_diff(detleft, detlefttail, detright, detrighttail,
                 &B[3], &B[2], &B[1], &B[0]);

    det = B[0] + B[1] + B[2] + B[3];   /* estimate: left-to-right sum */
    errbound = CCWERRBOUND_B * detsum;
    if (det >= errbound || -det >= errbound) return det;

    double acxtail = two_diff_tail(ax, cx, acx);
    double bcxtail = two_diff_tail(bx, cx, bcx);
    double acytail = two_diff_tail(ay, cy, acy);
    double bcytail = two_diff_tail(by, cy, bcy);

    if (acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0)
        return det;

    errbound = CCWERRBOUND_C * detsum + RESULTERRBOUND * fabs(det);
    det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
    if (det >= errbound || -det >= errbound) return det;

    double s1, s0, t1, t0;
    two_product(acxtail, bcy, &s1, &s0);
    two_product(acytail, bcx, &t1, &t0);
    two_two_diff(s1, s0, t1, t0, &u[3], &u[2], &u[1], &u[0]);
    c1len = fes_zeroelim(B, 4, u, 4, C1);

    two_product(acx, bcytail, &s1, &s0);
    two_product(acy, bcxtail, &t1, &t0);
    two_two_diff(s1, s0, t1, t0, &u[3], &u[2], &u[1], &u[0]);
    c2len = fes_zeroelim(C1, c1len, u, 4, C2);

    two_product(acxtail, bcytail, &s1, &s0);
    two_product(acytail, bcxtail, &t1, &t0);
    two_two_diff(s1, s0, t1, t0, &u[3], &u[2], &u[1], &u[0]);
    dlen = fes_zeroelim(C2, c2len, u, 4, D);

    return D[dlen - 1];
}

/* signed_area(p0, p1, p2) with inlined fast path (geom/predicates.py) */
static double signed_area(double ax, double ay, double bx, double by,
                          double cx, double cy) {
    double detleft = (ax - cx) * (by - cy);
    double detright = (ay - cy) * (bx - cx);
    double det = detleft - detright;
    double detsum;

    if (detleft > 0.0) {
        if (detright <= 0.0) return det;
        detsum = detleft + detright;
    } else if (detleft < 0.0) {
        if (detright >= 0.0) return det;
        detsum = -detleft - detright;
    } else {
        return det;
    }
    double errbound = CCWERRBOUND_A * detsum;
    if (det >= errbound || -det >= errbound) return det;
    return orient2d_adapt(ax, ay, bx, by, cx, cy, detsum);
}

/* ------------------------------------------------------ event comparator */

static int ev_is_below(const Event *e, double px, double py) {
    const Event *o = e->other;
    if (o == NULL) return 0;
    if (e->left)
        return signed_area(e->x, e->y, o->x, o->y, px, py) > 0.0;
    return signed_area(o->x, o->y, e->x, e->y, px, py) > 0.0;
}

static int ev_is_vertical(const Event *e) {
    return e->other != NULL && e->x == e->other->x;
}

/* event_cmp: +1 ⇒ e1 pops earlier (temporally before), never 0 */
static int event_cmp(const Event *e1, const Event *e2) {
    if (e1->x > e2->x) return -1;
    if (e1->x < e2->x) return 1;
    if (e1->y > e2->y) return -1;
    if (e1->y < e2->y) return 1;
    if (e1->left != e2->left) return e1->left ? -1 : 1;
    if (e1->other != NULL && e2->other != NULL) {
        if (signed_area(e1->x, e1->y, e1->other->x, e1->other->y,
                        e2->other->x, e2->other->y) != 0.0) {
            return ev_is_below(e1, e2->other->x, e2->other->y) ? 1 : -1;
        }
    }
    return (!e1->is_subject && e2->is_subject) ? -1 : 1;
}

/* lt ⇔ pops earlier ⇔ event_cmp > 0 */
static int ev_lt(const Event *a, const Event *b) { return event_cmp(a, b) > 0; }

/* ------------------------------------------------- Rust-BinaryHeap queue */

typedef struct {
    Event **data;
    int64_t n, cap;
} Heap;

static void heap_reserve(Heap *h, int64_t need) {
    if (need > h->cap) {
        h->cap = h->cap ? h->cap * 2 : 64;
        if (h->cap < need) h->cap = need;
        h->data = (Event **)realloc(h->data, h->cap * sizeof(Event *));
    }
}

static void heap_push(Heap *h, Event *item) {
    heap_reserve(h, h->n + 1);
    h->data[h->n++] = item;
    int64_t pos = h->n - 1;
    Event *element = h->data[pos];
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (event_cmp(element, h->data[parent]) < 0) break;
        h->data[pos] = h->data[parent];
        pos = parent;
    }
    h->data[pos] = element;
}

static void heap_sift_down_to_bottom(Heap *h, int64_t pos) {
    int64_t end = h->n;
    int64_t start = pos;
    Event *element = h->data[pos];
    int64_t child = 2 * pos + 1;
    while (child + 1 < end) {
        if (event_cmp(h->data[child], h->data[child + 1]) < 0) child++;
        h->data[pos] = h->data[child];
        pos = child;
        child = 2 * pos + 1;
    }
    if (child == end - 1) {
        h->data[pos] = h->data[child];
        pos = child;
    }
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (event_cmp(element, h->data[parent]) < 0) break;
        h->data[pos] = h->data[parent];
        pos = parent;
    }
    h->data[pos] = element;
}

static Event *heap_pop(Heap *h) {
    if (h->n == 0) return NULL;
    Event *item = h->data[--h->n];
    if (h->n == 0) return item;
    Event *result = h->data[0];
    h->data[0] = item;
    heap_sift_down_to_bottom(h, 0);
    return result;
}

/* -------------------------------------------------- segment intersection */

enum { INTER_NONE = 0, INTER_POINT = 1, INTER_OVERLAP = 2 };

typedef struct { double x0, y0, x1, y1; int ok; } BBox4;

static BBox4 inter_bbox(double a1x, double a1y, double a2x, double a2y,
                        double b1x, double b1y, double b2x, double b2y) {
    double asx, aex, asy, aey, bsx, bex, bsy, bey;
    BBox4 r;
    if (a1x < a2x) { asx = a1x; aex = a2x; } else { asx = a2x; aex = a1x; }
    if (a1y < a2y) { asy = a1y; aey = a2y; } else { asy = a2y; aey = a1y; }
    if (b1x < b2x) { bsx = b1x; bex = b2x; } else { bsx = b2x; bex = b1x; }
    if (b1y < b2y) { bsy = b1y; bey = b2y; } else { bsy = b2y; bey = b1y; }
    r.x0 = (asx > bsx) ? asx : bsx;
    r.y0 = (asy > bsy) ? asy : bsy;
    r.x1 = (aex < bex) ? aex : bex;
    r.y1 = (aey < bey) ? aey : bey;
    r.ok = (r.x0 <= r.x1 && r.y0 <= r.y1);
    return r;
}

static void constrain(double *x, double *y, const BBox4 *bb) {
    if (*x < bb->x0) *x = bb->x0; else if (*x > bb->x1) *x = bb->x1;
    if (*y < bb->y0) *y = bb->y0; else if (*y > bb->y1) *y = bb->y1;
}

static int segment_intersection(double a1x, double a1y, double a2x, double a2y,
                                double b1x, double b1y, double b2x, double b2y,
                                double *p1x, double *p1y,
                                double *p2x, double *p2y) {
    BBox4 bb = inter_bbox(a1x, a1y, a2x, a2y, b1x, b1y, b2x, b2y);
    if (!bb.ok) return INTER_NONE;

    double vax = a2x - a1x, vay = a2y - a1y;
    double vbx = b2x - b1x, vby = b2y - b1y;
    double ex = b1x - a1x, ey = b1y - a1y;
    double kross = vax * vby - vay * vbx;
    double sqr_kross = kross * kross;
    double sqr_len_a = vax * vax + vay * vay;
    int kind;
    double q1x = 0, q1y = 0, q2x = 0, q2y = 0;

    if (sqr_kross > 0.0) {
        double s = (ex * vby - ey * vbx) / kross;
        if (s < 0.0 || s > 1.0) return INTER_NONE;
        double t = (ex * vay - ey * vax) / kross;
        if (t < 0.0 || t > 1.0) return INTER_NONE;
        if (s == 0.0 || s == 1.0) {
            q1x = a1x + s * vax; q1y = a1y + s * vay;
        } else if (t == 0.0 || t == 1.0) {
            q1x = b1x + t * vbx; q1y = b1y + t * vby;
        } else {
            q1x = a1x + s * vax; q1y = a1y + s * vay;
        }
        kind = INTER_POINT;
    } else {
        kross = ex * vay - ey * vax;
        sqr_kross = kross * kross;
        if (sqr_kross > 0.0) return INTER_NONE;

        double sa = (vax * ex + vay * ey) / sqr_len_a;
        double sb = sa + (vax * vbx + vay * vby) / sqr_len_a;
        double smin = (sa < sb) ? sa : sb;
        double smax = (sa > sb) ? sa : sb;

        if (smin <= 1.0 && smax >= 0.0) {
            if (smin == 1.0) {
                q1x = a1x + smin * vax; q1y = a1y + smin * vay;
                kind = INTER_POINT;
            } else if (smax == 0.0) {
                q1x = a1x + smax * vax; q1y = a1y + smax * vay;
                kind = INTER_POINT;
            } else {
                double u = (smin > 0.0) ? smin : 0.0;
                double v = (smax < 1.0) ? smax : 1.0;
                q1x = a1x + u * vax; q1y = a1y + u * vay;
                q2x = a1x + v * vax; q2y = a1y + v * vay;
                kind = INTER_OVERLAP;
            }
        } else {
            return INTER_NONE;
        }
    }

    constrain(&q1x, &q1y, &bb);
    *p1x = q1x; *p1y = q1y;
    if (kind == INTER_OVERLAP) {
        constrain(&q2x, &q2y, &bb);
        *p2x = q2x; *p2y = q2y;
    }
    return kind;
}

/* ------------------------------------------------------ compare_segments */

static double sa_fast(double ax, double ay, double bx, double by,
                      double cx, double cy) {
    return signed_area(ax, ay, bx, by, cx, cy);
}

static int compare_segments(const Event *se1_l, const Event *se2_l) {
    if (se1_l == se2_l) return 0;

    const Event *se_old_l, *se_new_l;
    int sign;
    if (ev_lt(se1_l, se2_l)) {
        se_old_l = se1_l; se_new_l = se2_l; sign = 1;
    } else {
        se_old_l = se2_l; se_new_l = se1_l; sign = -1;
    }

    const Event *se_old_r = se_old_l->other;
    const Event *se_new_r = se_new_l->other;
    if (se_old_r == NULL || se_new_r == NULL) return -sign;

    double ax = se_old_l->x, ay = se_old_l->y;
    double bx = se_old_r->x, by = se_old_r->y;
    double cx = se_new_l->x, cy = se_new_l->y;
    double sa_l = sa_fast(ax, ay, bx, by, cx, cy);
    double dx = se_new_r->x, dy = se_new_r->y;
    double sa_r = sa_fast(ax, ay, bx, by, dx, dy);

    if (sa_l != 0.0 || sa_r != 0.0) {
        if (ax == cx && ay == cy)
            return ev_is_below(se_old_l, dx, dy) ? -sign : sign;

        if (ax == cx)
            return (ay < cy) ? -sign : sign;

        if ((sa_l > 0.0) == (sa_r > 0.0))
            return (sa_l > 0.0) ? -sign : sign;

        if (sa_l == 0.0)
            return (sa_r > 0.0) ? -sign : sign;

        double p1x, p1y, p2x, p2y;
        int kind = segment_intersection(ax, ay, bx, by, cx, cy, dx, dy,
                                        &p1x, &p1y, &p2x, &p2y);
        if (kind == INTER_NONE)
            return (sa_l > 0.0) ? -sign : sign;
        if (kind == INTER_POINT) {
            if (p1x == cx && p1y == cy)
                return (sa_r > 0.0) ? -sign : sign;
            return (sa_l > 0.0) ? -sign : sign;
        }
        /* overlap → collinear logic */
    }

    if (se_old_l->is_subject == se_new_l->is_subject) {
        if (ax == cx && ay == cy)
            return (se_old_l->contour_id < se_new_l->contour_id) ? -sign : sign;
        return -sign;
    }
    return se_old_l->is_subject ? -sign : sign;
}

/* ----------------------------------------------------------- splay set */

typedef struct SNode SNode;
struct SNode { Event *key; SNode *left, *right; };

typedef struct {
    SNode *root;
    SNode header;             /* scratch reused by every splay */
    Pool *nodes;              /* removed nodes are reclaimed at pool_reset */
} Splay;

static void splay_splay(Splay *s, const Event *key) {
    SNode *t = s->root;
    if (t == NULL) return;
    SNode *header = &s->header;
    header->left = header->right = NULL;
    SNode *l = header, *r = header;
    for (;;) {
        int c = compare_segments(key, t->key);
        if (c == 0) break;
        if (c < 0) {
            if (t->left == NULL) break;
            if (compare_segments(key, t->left->key) < 0) {
                SNode *y = t->left;          /* rotate right */
                t->left = y->right;
                y->right = t;
                t = y;
                if (t->left == NULL) break;
            }
            r->left = t;                     /* link right */
            r = t;
            t = t->left;
        } else {
            if (t->right == NULL) break;
            if (compare_segments(key, t->right->key) > 0) {
                SNode *y = t->right;         /* rotate left */
                t->right = y->left;
                y->left = t;
                t = y;
                if (t->right == NULL) break;
            }
            l->right = t;                    /* link left */
            l = t;
            t = t->right;
        }
    }
    l->right = t->left;
    r->left = t->right;
    t->left = header->right;
    t->right = header->left;
    s->root = t;
}

static void splay_insert(Splay *s, Event *key) {
    if (s->root == NULL) {
        SNode *n = (SNode *)pool_alloc(s->nodes);
        n->key = key; n->left = n->right = NULL;
        s->root = n;
        return;
    }
    splay_splay(s, key);
    SNode *root = s->root;
    int c = compare_segments(key, root->key);
    if (c == 0) return;   /* identical object: value replace (no-op) */
    SNode *n = (SNode *)pool_alloc(s->nodes);
    n->key = key;
    if (c < 0) {
        n->left = root->left;
        n->right = root;
        root->left = NULL;
    } else {
        n->left = root;
        n->right = root->right;
        root->right = NULL;
    }
    s->root = n;
}

static int splay_remove(Splay *s, const Event *key) {
    if (s->root == NULL) return 0;
    splay_splay(s, key);
    if (compare_segments(key, s->root->key) != 0) return 0;
    SNode *old = s->root;
    if (old->left == NULL) {
        s->root = old->right;
    } else {
        SNode *right = old->right;
        s->root = old->left;
        splay_splay(s, key);   /* splays max of left subtree to root */
        s->root->right = right;
    }
    return 1;
}

static int splay_contains(Splay *s, const Event *key) {
    if (s->root == NULL) return 0;
    splay_splay(s, key);
    return compare_segments(key, s->root->key) == 0;
}

static Event *splay_next(Splay *s, const Event *key) {
    if (s->root == NULL) return NULL;
    splay_splay(s, key);
    SNode *node = s->root;
    Event *successor = NULL;
    for (;;) {
        if (compare_segments(key, node->key) < 0) {
            successor = node->key;
            if (node->left == NULL) break;
            node = node->left;
        } else {
            if (node->right == NULL) break;
            node = node->right;
        }
    }
    return successor;
}

static Event *splay_prev(Splay *s, const Event *key) {
    if (s->root == NULL) return NULL;
    splay_splay(s, key);
    SNode *node = s->root;
    Event *predecessor = NULL;
    for (;;) {
        if (compare_segments(key, node->key) > 0) {
            predecessor = node->key;
            if (node->right == NULL) break;
            node = node->right;
        } else {
            if (node->left == NULL) break;
            node = node->left;
        }
    }
    return predecessor;
}

/* ----------------------------------------------- divide / possible-inter */

static void divide_segment(Pool *arena, Event *se_l, double ix, double iy,
                           Heap *queue) {
    Event *se_r = se_l->other;
    if (se_r == NULL) return;

    /* corner case 1: ULP nudge (divide_segment.rs:47-50) */
    if (ix == se_l->x && iy < se_l->y)
        ix = nextafter(ix, INFINITY);

    Event *r = arena_new_event(arena);
    r->x = ix; r->y = iy; r->left = 0; r->other = se_l;
    r->contour_id = se_l->contour_id;
    r->is_subject = se_l->is_subject;
    r->is_exterior_ring = 1;

    Event *l = arena_new_event(arena);
    l->x = ix; l->y = iy; l->left = 1; l->other = se_r;
    l->contour_id = se_l->contour_id;
    l->is_subject = se_l->is_subject;
    l->is_exterior_ring = 1;

    /* corner case 2 (divide_segment.rs:72-75) */
    if (!ev_lt(l, se_r)) {
        se_r->left = 1;
        l->left = 0;
    }

    se_l->other = r;
    se_r->other = l;

    heap_push(queue, l);
    heap_push(queue, r);
}

static int possible_intersection(Pool *arena, Event *se1, Event *se2,
                                 Heap *queue) {
    Event *other1 = se1->other;
    Event *other2 = se2->other;
    if (other1 == NULL || other2 == NULL) return 0;

    double p1x, p1y, p2x, p2y;
    int kind = segment_intersection(se1->x, se1->y, other1->x, other1->y,
                                    se2->x, se2->y, other2->x, other2->y,
                                    &p1x, &p1y, &p2x, &p2y);
    if (kind == INTER_NONE) return 0;

    if (kind == INTER_POINT) {
        if ((se1->x == se2->x && se1->y == se2->y) ||
            (other1->x == other2->x && other1->y == other2->y))
            return 0;   /* endpoint touch */
        if (!(se1->x == p1x && se1->y == p1y) &&
            !(other1->x == p1x && other1->y == p1y))
            divide_segment(arena, se1, p1x, p1y, queue);
        if (!(se2->x == p1x && se2->y == p1y) &&
            !(other2->x == p1x && other2->y == p1y))
            divide_segment(arena, se2, p1x, p1y, queue);
        return 1;
    }

    /* overlap */
    if (se1->is_subject == se2->is_subject) return 0;

    Event *ev_a[4], *ev_b[4];
    int nev = 0;
    int left_coincide = 0, right_coincide = 0;

    if (se1->x == se2->x && se1->y == se2->y) {
        left_coincide = 1;
    } else if (event_cmp(se1, se2) < 0) {
        ev_a[nev] = se2; ev_b[nev++] = other2;
        ev_a[nev] = se1; ev_b[nev++] = other1;
    } else {
        ev_a[nev] = se1; ev_b[nev++] = other1;
        ev_a[nev] = se2; ev_b[nev++] = other2;
    }

    if (other1->x == other2->x && other1->y == other2->y) {
        right_coincide = 1;
    } else if (event_cmp(other1, other2) < 0) {
        ev_a[nev] = other2; ev_b[nev++] = se2;
        ev_a[nev] = other1; ev_b[nev++] = se1;
    } else {
        ev_a[nev] = other1; ev_b[nev++] = se1;
        ev_a[nev] = other2; ev_b[nev++] = se2;
    }

    if (left_coincide) {
        se2->edge_type = EDGE_NON_CONTRIBUTING;
        se1->edge_type = (se1->in_out == se2->in_out)
                             ? EDGE_SAME_TRANSITION
                             : EDGE_DIFFERENT_TRANSITION;
        if (!right_coincide) {
            /* events[1][1], events[0][0].point — note: with left_coincide
               the events array holds only the right-end pair at 0,1 */
            divide_segment(arena, ev_b[1], ev_a[0]->x, ev_a[0]->y, queue);
        }
        return 2;
    }

    if (right_coincide) {
        divide_segment(arena, ev_a[0], ev_a[1]->x, ev_a[1]->y, queue);
        return 3;
    }

    if (ev_a[0] != ev_b[3]) {
        divide_segment(arena, ev_a[0], ev_a[1]->x, ev_a[1]->y, queue);
        divide_segment(arena, ev_a[1], ev_a[2]->x, ev_a[2]->y, queue);
        return 3;
    }

    divide_segment(arena, ev_a[0], ev_a[1]->x, ev_a[1]->y, queue);
    divide_segment(arena, ev_a[3]->other, ev_a[2]->x, ev_a[2]->y, queue);
    return 3;
}

/* --------------------------------------------------------- compute_fields */

static int ev_is_in_result(const Event *e) {
    return e->result_transition != TRANS_NONE;
}

static int in_result(const Event *event, int op) {
    switch (event->edge_type) {
    case EDGE_NORMAL:
        switch (op) {
        case OP_INTERSECTION: return !event->other_in_out;
        case OP_UNION: return event->other_in_out;
        case OP_DIFFERENCE:
            return (event->is_subject && event->other_in_out) ||
                   (!event->is_subject && !event->other_in_out);
        default: return 1;   /* xor */
        }
    case EDGE_SAME_TRANSITION:
        return op == OP_INTERSECTION || op == OP_UNION;
    case EDGE_DIFFERENT_TRANSITION:
        return op == OP_DIFFERENCE;
    default:
        return 0;
    }
}

static int determine_result_transition(const Event *event, int op) {
    int this_in = !event->in_out;
    int that_in = !event->other_in_out;
    int is_in;
    switch (op) {
    case OP_INTERSECTION: is_in = this_in && that_in; break;
    case OP_UNION: is_in = this_in || that_in; break;
    case OP_XOR: is_in = this_in != that_in; break;
    default:
        is_in = event->is_subject ? (this_in && !that_in)
                                  : (that_in && !this_in);
    }
    return is_in ? TRANS_OUT_IN : TRANS_IN_OUT;
}

static void compute_fields(Event *event, Event *prev, int op) {
    if (prev != NULL) {
        if (event->is_subject == prev->is_subject) {
            event->in_out = !prev->in_out;
            event->other_in_out = prev->other_in_out;
        } else if (ev_is_vertical(prev)) {
            event->in_out = !prev->other_in_out;
            event->other_in_out = !prev->in_out;
        } else {
            event->in_out = !prev->other_in_out;
            event->other_in_out = prev->in_out;
        }
        if (ev_is_in_result(prev) && !ev_is_vertical(prev))
            event->prev_in_result = prev;
        else if (prev->prev_in_result != NULL)
            event->prev_in_result = prev->prev_in_result;
        else
            event->prev_in_result = NULL;
    } else {
        event->in_out = 0;
        event->other_in_out = 1;
        event->prev_in_result = NULL;
    }
    if (!in_result(event, op))
        event->result_transition = TRANS_NONE;
    else
        event->result_transition = determine_result_transition(event, op);
}

/* ------------------------------------------------------------ the sweep */

typedef struct {
    Event **data;
    int64_t n, cap;
} EvVec;

static void evvec_push(EvVec *v, Event *e) {
    if (v->n == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 256;
        v->data = (Event **)realloc(v->data, v->cap * sizeof(Event *));
    }
    v->data[v->n++] = e;
}

/* Returns 0, or -1 when the sweep exceeds its event budget (see
 * geom/subdivide.py: the 1-ULP intersection nudge creeping along a
 * segment, where the reference never ends). */
static int subdivide(Pool *arena, Heap *queue,
                     const double sbbox[4], const double cbbox[4],
                     int op, EvVec *sorted_events, Splay *sweep_line) {
    double rightbound = (sbbox[2] < cbbox[2]) ? sbbox[2] : cbbox[2];
    int64_t n_edges = queue->n / 2;
    int64_t budget = 2 * n_edges + 8 * n_edges * n_edges;

    while (queue->n > 0) {
        Event *event = heap_pop(queue);
        evvec_push(sorted_events, event);
        if (sorted_events->n > budget) return -1;

        if ((op == OP_INTERSECTION && event->x > rightbound) ||
            (op == OP_DIFFERENCE && event->x > sbbox[2]))
            break;

        if (event->left) {
            splay_insert(sweep_line, event);
            Event *maybe_prev = splay_prev(sweep_line, event);
            Event *maybe_next = splay_next(sweep_line, event);

            compute_fields(event, maybe_prev, op);

            if (maybe_next != NULL) {
                if (possible_intersection(arena, event, maybe_next, queue) == 2) {
                    compute_fields(event, maybe_prev, op);
                    compute_fields(maybe_next, event, op);
                }
            }
            if (maybe_prev != NULL) {
                if (possible_intersection(arena, maybe_prev, event, queue) == 2) {
                    Event *maybe_prev_prev = splay_prev(sweep_line, maybe_prev);
                    compute_fields(maybe_prev, maybe_prev_prev, op);
                    compute_fields(event, maybe_prev, op);
                }
            }
        } else {
            Event *other_event = event->other;
            if (other_event != NULL) {
                if (splay_contains(sweep_line, other_event)) {
                    Event *maybe_prev = splay_prev(sweep_line, other_event);
                    Event *maybe_next = splay_next(sweep_line, other_event);
                    if (maybe_prev != NULL && maybe_next != NULL)
                        possible_intersection(arena, maybe_prev, maybe_next, queue);
                    splay_remove(sweep_line, other_event);
                }
            }
        }
    }
    return 0;
}

/* --------------------------------------------------------- connect edges */

typedef struct {
    double *pts;           /* x,y interleaved */
    int64_t n, cap;        /* in points */
    int32_t *hole_ids;
    int64_t nh, caph;
    int32_t hole_of;       /* -1 = exterior */
    int32_t depth;
} Contour;

typedef struct {
    Contour *data;
    int64_t n;
    int64_t n_init;        /* entries holding buffers, kept across pairs */
    int64_t cap;
} ContourVec;

/* The next contour, empty.  An entry an earlier pair used keeps its
 * point and hole-id buffers; only their counts are reset. */
static Contour *contourvec_push(ContourVec *v) {
    if (v->n == v->n_init) {
        if (v->n_init == v->cap) {
            v->cap = v->cap ? v->cap * 2 : 32;
            v->data = (Contour *)realloc(v->data, v->cap * sizeof(Contour));
        }
        memset(&v->data[v->n_init++], 0, sizeof(Contour));
    }
    Contour *c = &v->data[v->n++];
    c->n = 0;
    c->nh = 0;
    c->hole_of = -1;
    c->depth = 0;
    return c;
}

static void contour_add_point(Contour *c, double x, double y) {
    if (c->n == c->cap) {
        c->cap = c->cap ? c->cap * 2 : 16;
        c->pts = (double *)realloc(c->pts, c->cap * 2 * sizeof(double));
    }
    c->pts[2 * c->n] = x;
    c->pts[2 * c->n + 1] = y;
    c->n++;
}

static void contour_add_hole(Contour *c, int32_t hid) {
    if (c->nh == c->caph) {
        c->caph = c->caph ? c->caph * 2 : 4;
        c->hole_ids = (int32_t *)realloc(c->hole_ids, c->caph * sizeof(int32_t));
    }
    c->hole_ids[c->nh++] = hid;
}

/* connect_edges' per-pair arrays, grown once and kept across pairs */
typedef struct {
    Event **result_events;
    int64_t *iteration_map;
    uint8_t *processed;
    int64_t cap;
} ConnectBufs;

static void connect_reserve(ConnectBufs *b, int64_t need) {
    if (b->cap > 0 && b->cap >= need) return;
    int64_t cap = b->cap ? 2 * b->cap : 256;
    if (cap < need) cap = need;
    b->result_events = (Event **)realloc(b->result_events, cap * sizeof(Event *));
    b->iteration_map = (int64_t *)realloc(b->iteration_map, cap * sizeof(int64_t));
    b->processed = (uint8_t *)realloc(b->processed, cap);
    b->cap = cap;
}

static int64_t order_events(EvVec *sorted_events, Event **r) {
    int64_t n = 0;
    for (int64_t i = 0; i < sorted_events->n; i++) {
        Event *e = sorted_events->data[i];
        if ((e->left && ev_is_in_result(e)) ||
            (!e->left && e->other != NULL && ev_is_in_result(e->other)))
            r[n++] = e;
    }
    int done = 0;
    while (!done) {
        done = 1;
        for (int64_t i = 1; i < n; i++) {
            if (event_cmp(r[i - 1], r[i]) < 0) {
                Event *tmp = r[i - 1];
                r[i - 1] = r[i];
                r[i] = tmp;
                done = 0;
            }
        }
    }
    for (int64_t pos = 0; pos < n; pos++) r[pos]->other_pos = pos;
    for (int64_t i = 0; i < n; i++) {
        Event *e = r[i];
        if (e->left && e->other != NULL) {
            int64_t tmp = e->other_pos;
            e->other_pos = e->other->other_pos;
            e->other->other_pos = tmp;
        }
    }
    return n;
}

static void precompute_iteration_order(Event **data, int64_t n, int64_t *mapping) {
    int64_t i = 0;
    while (i < n) {
        double rx = data[i]->x, ry = data[i]->y;

        int64_t r_from = i;
        while (i < n && data[i]->x == rx && data[i]->y == ry && !data[i]->left) i++;
        int64_t r_upto_exclusive = i;

        int64_t l_from = i;
        while (i < n && data[i]->x == rx && data[i]->y == ry) i++;
        int64_t l_upto_exclusive = i;

        int has_r = r_upto_exclusive > r_from;
        int has_l = l_upto_exclusive > l_from;

        if (has_r) {
            int64_t r_upto = r_upto_exclusive - 1;
            for (int64_t j = r_from; j < r_upto; j++) mapping[j] = j + 1;
            mapping[r_upto] = has_l ? (l_upto_exclusive - 1) : r_from;
        }
        if (has_l) {
            int64_t l_upto = l_upto_exclusive - 1;
            for (int64_t j = l_from + 1; j <= l_upto; j++) mapping[j] = j - 1;
            mapping[l_from] = has_r ? r_from : l_upto;
        }
    }
}

static int64_t get_next_pos(int64_t pos, const uint8_t *processed,
                            const int64_t *iteration_map) {
    int64_t start_pos = pos;
    for (;;) {
        pos = iteration_map[pos];
        if (pos == start_pos) return -1;
        if (!processed[pos]) return pos;
    }
}

/* Returns 0, or -1 when a result event's predecessor has no output
 * contour yet: the reference indexes contours[id as usize] there and
 * panics. */
static int connect_edges(EvVec *sorted_events, ContourVec *contours,
                         ConnectBufs *bufs) {
    connect_reserve(bufs, sorted_events->n);
    Event **result_events = bufs->result_events;
    int64_t *iteration_map = bufs->iteration_map;
    uint8_t *processed = bufs->processed;
    int64_t n = order_events(sorted_events, result_events);
    memset(processed, 0, n);
    /* writes every slot of iteration_map[0, n) */
    precompute_iteration_order(result_events, n, iteration_map);

    for (int64_t i = 0; i < n; i++) {
        if (processed[i]) continue;

        int32_t contour_id = (int32_t)contours->n;

        /* initialize_contour_from_context (connect_edges.rs:166-210) */
        int32_t hole_of = -1, depth = 0;
        Event *prev_in_result = result_events[i]->prev_in_result;
        if (prev_in_result != NULL) {
            int32_t lower = prev_in_result->output_contour_id;
            if (prev_in_result->result_transition == TRANS_OUT_IN) {
                if (lower < 0) return -1;
                Contour *lc = &contours->data[lower];
                if (lc->hole_of >= 0) {
                    int32_t parent = lc->hole_of;
                    contour_add_hole(&contours->data[parent], contour_id);
                    hole_of = parent;
                    depth = contours->data[lower].depth;
                } else {
                    contour_add_hole(&contours->data[lower], contour_id);
                    hole_of = lower;
                    depth = contours->data[lower].depth + 1;
                }
            } else if (lower >= 0 && lower < contours->n) {
                depth = contours->data[lower].depth;
            }
        }
        Contour *contour = contourvec_push(contours);
        contour->hole_of = hole_of;
        contour->depth = depth;

        int64_t pos = i;
        double initial_x = result_events[pos]->x;
        double initial_y = result_events[pos]->y;
        contour_add_point(contour, initial_x, initial_y);

        for (;;) {
            processed[pos] = 1;
            result_events[pos]->output_contour_id = contour_id;

            pos = result_events[pos]->other_pos;

            processed[pos] = 1;
            result_events[pos]->output_contour_id = contour_id;
            contour_add_point(contour, result_events[pos]->x, result_events[pos]->y);

            int64_t next_pos = get_next_pos(pos, processed, iteration_map);
            if (next_pos < 0) break;
            pos = next_pos;

            if (result_events[pos]->x == initial_x &&
                result_events[pos]->y == initial_y)
                break;
        }
    }
    return 0;
}

/* -------------------------------------------------------------- driver */

/* Output buffers: caller frees with martinez_free_batch. */
typedef struct {
    double *xy;
    int64_t *ring_sizes;          /* vertices per ring */
    int64_t *poly_ring_counts;    /* rings per polygon */
    int64_t n_vertices, n_rings, n_polys;
} Result;

static void result_append_ring(Result *res, const double *pts, int64_t npts,
                               int64_t *cap_v, int64_t *cap_r) {
    if (res->n_vertices + npts > *cap_v) {
        while (res->n_vertices + npts > *cap_v) *cap_v *= 2;
        res->xy = (double *)realloc(res->xy, *cap_v * 2 * sizeof(double));
    }
    memcpy(res->xy + 2 * res->n_vertices, pts, npts * 2 * sizeof(double));
    res->n_vertices += npts;
    if (res->n_rings == *cap_r) {
        *cap_r *= 2;
        res->ring_sizes = (int64_t *)realloc(res->ring_sizes, *cap_r * sizeof(int64_t));
    }
    res->ring_sizes[res->n_rings++] = npts;
}

/* growable result of the batch entry point */
typedef struct {
    Result res;
    int64_t cap_v, cap_r, cap_p;
} GrowResult;

static void grow_result_init(GrowResult *g) {
    memset(g, 0, sizeof(*g));
    g->cap_v = 256; g->cap_r = 32; g->cap_p = 16;
    g->res.xy = (double *)malloc(g->cap_v * 2 * sizeof(double));
    g->res.ring_sizes = (int64_t *)malloc(g->cap_r * sizeof(int64_t));
    g->res.poly_ring_counts = (int64_t *)malloc(g->cap_p * sizeof(int64_t));
}

static void grow_result_poly(GrowResult *g, int64_t nrings) {
    if (g->res.n_polys == g->cap_p) {
        g->cap_p *= 2;
        g->res.poly_ring_counts = (int64_t *)realloc(
            g->res.poly_ring_counts, g->cap_p * sizeof(int64_t));
    }
    g->res.poly_ring_counts[g->res.n_polys++] = nrings;
}

/* One side of a pair, addressed through the Arrow nested-list offset
 * chains exactly as they sit in the block (zero marshal-in):
 *   multipolygon i = polys [mp_off[i], mp_off[i+1])
 *   poly p        = rings [poly_off[p], poly_off[p+1])
 *   ring r        = coords [ring_off[r], ring_off[r+1])  into xy */
typedef struct {
    const double *xy;
    const int32_t *ring_off, *poly_off, *mp_off;
} ArrowSide;

static void fill_side(Pool *arena, Heap *queue, const ArrowSide *side,
                      int64_t row, int is_subject, int32_t *contour_id,
                      int inc_contour, int mark_exterior, double bbox[4]) {
    for (int32_t p = side->mp_off[row]; p < side->mp_off[row + 1]; p++) {
        if (inc_contour) (*contour_id)++;
        int first = 1;
        for (int32_t r = side->poly_off[p]; r < side->poly_off[p + 1]; r++) {
            int is_ext = mark_exterior && first;
            first = 0;
            int32_t lo = side->ring_off[r], hi = side->ring_off[r + 1];
            for (int32_t k = lo; k + 1 < hi; k++) {
                double sx = side->xy[2 * k], sy = side->xy[2 * k + 1];
                double ex = side->xy[2 * (k + 1)], ey = side->xy[2 * (k + 1) + 1];
                if (sx == ex && sy == ey) continue;

                Event *e1 = arena_new_event(arena);
                e1->x = sx; e1->y = sy;
                e1->contour_id = *contour_id;
                e1->is_subject = (uint8_t)is_subject;
                e1->is_exterior_ring = (uint8_t)is_ext;
                Event *e2 = arena_new_event(arena);
                e2->x = ex; e2->y = ey;
                e2->contour_id = *contour_id;
                e2->is_subject = (uint8_t)is_subject;
                e2->is_exterior_ring = (uint8_t)is_ext;
                e1->other = e2;
                e2->other = e1;

                if (event_cmp(e1, e2) < 0) e2->left = 1;
                else e1->left = 1;

                if (sx < bbox[0]) bbox[0] = sx;
                if (sy < bbox[1]) bbox[1] = sy;
                if (sx > bbox[2]) bbox[2] = sx;
                if (sy > bbox[3]) bbox[3] = sy;

                heap_push(queue, e1);
                heap_push(queue, e2);
            }
        }
    }
}

static void append_side_polys(GrowResult *g, const ArrowSide *side, int64_t row,
                              int64_t *npolys) {
    for (int32_t p = side->mp_off[row]; p < side->mp_off[row + 1]; p++) {
        int64_t nrings = 0;
        for (int32_t r = side->poly_off[p]; r < side->poly_off[p + 1]; r++) {
            int32_t lo = side->ring_off[r], hi = side->ring_off[r + 1];
            result_append_ring(&g->res, side->xy + 2 * lo, hi - lo,
                               &g->cap_v, &g->cap_r);
            nrings++;
        }
        grow_result_poly(g, nrings);
        (*npolys)++;
    }
}

/* ---------------------------------------------------------- known answers */

/* An `intersection` pair whose result has a closed form is answered
 * before fill_side builds any event: the lift of the reference's bbox
 * gate (mod.rs:106-109) from "disjoint → empty" to two row shapes.
 *
 *   GATE_RECT       both operands are CCW axis-aligned rects: the
 *                   kernel clamps every crossing into the bbox shared
 *                   by the two segments, which for a horizontal and a
 *                   vertical edge is one point, so its answer is the
 *                   overlap rect from its least corner, or empty.
 *   GATE_CONTAINED  the clipping operand is such a rect and the subject
 *                   is one strictly convex CCW ring that winds once,
 *                   every vertex strictly inside the rect: no edge
 *                   meets the rect, and the kernel returns the ring
 *                   from its least vertex (least x, then least y).
 *
 * Each answer is bit-identical to the Python reference kernel
 * (tests/test_known_answers.py).  A pair with a non-finite or -0.0
 * coordinate, a non-zero magnitude outside [COORD_MIN, COORD_MAX], or
 * a largest magnitude more than SPREAD_MAX times its smallest non-zero
 * magnitude or extent is swept: there the kernel mixes signed zeros,
 * nudges in collinear vertices, fails or runs on, and a known answer
 * must never replace any of those.
 *
 * The kernel's highest-degree product (sqr_kross) is 4th degree in
 * coordinate differences.  With every non-zero |coordinate| in
 * [2^-200, 2^200] and differences down to one ULP, those products stay
 * finite and normal: (2^201)^4 < 2^1024 and (2^-252)^4 > 2^-1022.
 * Rect pairs first differ from the kernel at spreads near 2^54: mixing
 * 1 with 1e20 or 1e-20 fails, 1e8 does not. */
#define COORD_MIN 0x1p-200
#define COORD_MAX 0x1p200
#define SPREAD_MAX 0x1p26

enum { GATE_SWEPT = 0, GATE_RECT = 1, GATE_CONTAINED = 2 };

/* The one ring of `row` when the row is one polygon with one ring:
 * its first coordinate and its point count. */
static int single_ring(const ArrowSide *side, int64_t row,
                       const double **xy, int32_t *n) {
    int32_t p = side->mp_off[row];
    if (side->mp_off[row + 1] - p != 1) return 0;
    int32_t r = side->poly_off[p];
    if (side->poly_off[p + 1] - r != 1) return 0;
    *xy = side->xy + 2 * (int64_t)side->ring_off[r];
    *n = side->ring_off[r + 1] - side->ring_off[r];
    return 1;
}

static int is_neg_zero(double v) { return v == 0.0 && signbit(v); }

static int sgn(double v) { return (v > 0.0) - (v < 0.0); }

/* A closed 5-point ring of alternating horizontal and vertical edges
 * whose first turn is a left turn, with no -0.0 vertex (0.0 - -0.0 ==
 * 0, so such an edge would still look straight): its bbox. */
static int rect_shape(const double *xy, int32_t n, BBox4 *b) {
    if (n != 5 || xy[8] != xy[0] || xy[9] != xy[1]) return 0;
    for (int k = 0; k < 5; k++)
        if (is_neg_zero(xy[2 * k]) || is_neg_zero(xy[2 * k + 1])) return 0;
    int prev_h = -1;
    for (int k = 0; k < 4; k++) {
        double dx = xy[2 * k + 2] - xy[2 * k], dy = xy[2 * k + 3] - xy[2 * k + 1];
        int h = dy == 0.0, v = dx == 0.0;
        if (h == v || h == prev_h) return 0;
        prev_h = h;
    }
    double dx0 = xy[2] - xy[0], dy0 = xy[3] - xy[1];
    double dx1 = xy[4] - xy[2], dy1 = xy[5] - xy[3];
    if (sgn(dx0) * sgn(dy1) - sgn(dy0) * sgn(dx1) <= 0) return 0;
    b->x0 = b->x1 = xy[0];
    b->y0 = b->y1 = xy[1];
    for (int k = 1; k < 4; k++) {
        double x = xy[2 * k], y = xy[2 * k + 1];
        if (x < b->x0) b->x0 = x;
        if (x > b->x1) b->x1 = x;
        if (y < b->y0) b->y0 = y;
        if (y > b->y1) b->y1 = y;
    }
    return 1;
}

/* The largest magnitude and the smallest non-zero magnitude or extent
 * of one pair; `ok` drops on a non-finite or too large coordinate. */
typedef struct { double big, small; int ok; } Spread;

static void spread_coord(Spread *s, double v) {
    double a = fabs(v);
    if (!(a <= COORD_MAX)) s->ok = 0;
    if (a > s->big) s->big = a;
    if (a > 0.0 && a < s->small) s->small = a;
}

static void spread_box(Spread *s, const BBox4 *b) {
    spread_coord(s, b->x0);
    spread_coord(s, b->y0);
    spread_coord(s, b->x1);
    spread_coord(s, b->y1);
}

static void spread_extent(Spread *s, double e) {
    if (e < s->small) s->small = e;
}

static int spread_ok(const Spread *s) {
    return s->ok && s->small >= COORD_MIN && s->big <= SPREAD_MAX * s->small;
}

/* rect ∩ rect: the overlap rect from its least corner, or empty.  A
 * positive overlap a few ULPs wide makes the kernel nudge in a
 * collinear vertex, so it counts as an extent. */
static int gate_rect(GrowResult *g, const BBox4 *s, const BBox4 *c, int64_t *npolys) {
    double lx = s->x0 > c->x0 ? s->x0 : c->x0, ly = s->y0 > c->y0 ? s->y0 : c->y0;
    double hx = s->x1 < c->x1 ? s->x1 : c->x1, hy = s->y1 < c->y1 ? s->y1 : c->y1;
    Spread sp = {0.0, INFINITY, 1};
    spread_box(&sp, s);
    spread_box(&sp, c);
    spread_extent(&sp, s->x1 - s->x0);
    spread_extent(&sp, s->y1 - s->y0);
    spread_extent(&sp, c->x1 - c->x0);
    spread_extent(&sp, c->y1 - c->y0);
    if (hx > lx) spread_extent(&sp, hx - lx);
    if (hy > ly) spread_extent(&sp, hy - ly);
    if (!spread_ok(&sp)) return GATE_SWEPT;
    if (lx < hx && ly < hy) {
        double ring[10] = {lx, ly, hx, ly, hx, hy, lx, hy, lx, ly};
        result_append_ring(&g->res, ring, 5, &g->cap_v, &g->cap_r);
        grow_result_poly(g, 1);
        (*npolys)++;
    }
    return GATE_RECT;
}

/* A closed ring strictly inside rect `c`, strictly convex and CCW
 * under signed_area at every vertex, whose edges' x-direction changes
 * sign exactly twice (a pentagram turns left everywhere too): the ring
 * from its least vertex.  The subject's bbox extents, its gaps to the
 * rect and the longer side of each edge's bbox count as extents.  A
 * gap is positive only when every vertex lies strictly inside the
 * rect, so the extents also decide containment.  The neighbours of an
 * edge a few ULPs long meet in the kernel's float crossing test, and it
 * splits the ring there. */
static int gate_contained(GrowResult *g, const double *xy, int32_t n,
                          const BBox4 *c, int64_t *npolys) {
    int32_t m = n - 1;  /* distinct vertices */
    if (m < 3 || xy[2 * m] != xy[0] || xy[2 * m + 1] != xy[1] ||
        is_neg_zero(xy[2 * m]) || is_neg_zero(xy[2 * m + 1]))
        return GATE_SWEPT;
    Spread sp = {0.0, INFINITY, 1};
    spread_box(&sp, c);
    BBox4 s = {xy[0], xy[1], xy[0], xy[1], 1};
    int32_t least = 0;
    int changes = 0, last_dir = 0;
    for (int32_t k = 0; k < m; k++) {
        double x = xy[2 * k], y = xy[2 * k + 1];
        if (is_neg_zero(x) || is_neg_zero(y)) return GATE_SWEPT;
        spread_coord(&sp, x);
        spread_coord(&sp, y);
        const double *prev = xy + 2 * (k ? k - 1 : m - 1);
        const double *next = xy + 2 * (k + 1);
        if (!(signed_area(prev[0], prev[1], x, y, next[0], next[1]) > 0.0))
            return GATE_SWEPT;
        int dir = sgn(next[0] - x);
        if (dir) {
            if (last_dir && dir != last_dir) changes++;
            last_dir = dir;
        }
        double ex = fabs(next[0] - x), ey = fabs(next[1] - y);
        spread_extent(&sp, ex > ey ? ex : ey);
        if (x < s.x0) s.x0 = x;
        if (x > s.x1) s.x1 = x;
        if (y < s.y0) s.y0 = y;
        if (y > s.y1) s.y1 = y;
        if (x < xy[2 * least] || (x == xy[2 * least] && y < xy[2 * least + 1]))
            least = k;
    }
    /* close the cycle: the first non-zero direction against the last */
    for (int32_t k = 0; k < m; k++) {
        int dir = sgn(xy[2 * k + 2] - xy[2 * k]);
        if (dir) {
            if (dir != last_dir) changes++;
            break;
        }
    }
    if (changes != 2) return GATE_SWEPT;
    spread_extent(&sp, c->x1 - c->x0);
    spread_extent(&sp, c->y1 - c->y0);
    spread_extent(&sp, s.x1 - s.x0);
    spread_extent(&sp, s.y1 - s.y0);
    spread_extent(&sp, s.x0 - c->x0);
    spread_extent(&sp, s.y0 - c->y0);
    spread_extent(&sp, c->x1 - s.x1);
    spread_extent(&sp, c->y1 - s.y1);
    if (!spread_ok(&sp)) return GATE_SWEPT;

    /* one ring in two runs: v[least..m-1], then v[0..least] */
    result_append_ring(&g->res, xy + 2 * least, m - least, &g->cap_v, &g->cap_r);
    result_append_ring(&g->res, xy, least + 1, &g->cap_v, &g->cap_r);
    g->res.ring_sizes[--g->res.n_rings - 1] = n;
    grow_result_poly(g, 1);
    (*npolys)++;
    return GATE_CONTAINED;
}

/* The class of pair `row` of an `intersection`; a known answer is
 * appended to `g`. */
static int known_answer(GrowResult *g, const ArrowSide *S, const ArrowSide *C,
                        int64_t row, int64_t *npolys) {
    const double *cxy, *sxy;
    int32_t cn, sn;
    BBox4 c, s;
    if (!single_ring(C, row, &cxy, &cn) || !rect_shape(cxy, cn, &c))
        return GATE_SWEPT;
    if (!single_ring(S, row, &sxy, &sn)) return GATE_SWEPT;
    if (rect_shape(sxy, sn, &s)) return gate_rect(g, &s, &c, npolys);
    return gate_contained(g, sxy, sn, &c, npolys);
}

/* Everything one pair's sweep needs, allocated once per batch call.
 * Each pair resets the counts and keeps the buffers; workspace_free
 * releases them once, whether the call succeeds or fails. */
typedef struct {
    Pool events;                 /* Event */
    Pool nodes;                  /* SNode of the sweep line */
    Heap queue;
    EvVec sorted_events;
    ContourVec contours;
    ConnectBufs connect;
} Workspace;

static void workspace_init(Workspace *w) {
    memset(w, 0, sizeof(*w));
    w->events.item_size = sizeof(Event);
    w->nodes.item_size = sizeof(SNode);
    pool_reset(&w->events);
    pool_reset(&w->nodes);
}

static void workspace_reset(Workspace *w) {
    pool_reset(&w->events);
    pool_reset(&w->nodes);
    w->queue.n = 0;
    w->sorted_events.n = 0;
    w->contours.n = 0;
}

static void workspace_free(Workspace *w) {
    pool_free(&w->events);
    pool_free(&w->nodes);
    free(w->queue.data);
    free(w->sorted_events.data);
    for (int64_t ci = 0; ci < w->contours.n_init; ci++) {
        free(w->contours.data[ci].pts);
        free(w->contours.data[ci].hole_ids);
    }
    free(w->contours.data);
    free(w->connect.result_events);
    free(w->connect.iteration_map);
    free(w->connect.processed);
}

/* Batch entry point: n_pairs independent boolean ops in one call,
 * consuming both geometry columns through their Arrow offsets.
 * out_pair_poly_counts[i] = polygons in pair i's result; classes[i] =
 * GATE_RECT or GATE_CONTAINED when pair i has a known answer, else
 * GATE_SWEPT (caller-allocated, n_pairs entries).  Returns 0, or,
 * with every output NULL, 2 when a pair fails in connect_edges (where
 * the reference panics) and 3 when its sweep exceeds the event budget
 * (where the reference never ends). */
int martinez_batch(
    const double *s_xy, const int32_t *s_ring_off, const int32_t *s_poly_off,
    const int32_t *s_mp_off,
    const double *c_xy, const int32_t *c_ring_off, const int32_t *c_poly_off,
    const int32_t *c_mp_off,
    int64_t n_pairs, const int32_t *ops,
    double **out_xy, int64_t **out_ring_sizes, int64_t **out_poly_ring_counts,
    int64_t **out_pair_poly_counts,
    int64_t *out_n_vertices, int64_t *out_n_rings, int64_t *out_n_polys,
    int8_t *classes)
{
    ArrowSide S = {s_xy, s_ring_off, s_poly_off, s_mp_off};
    ArrowSide C = {c_xy, c_ring_off, c_poly_off, c_mp_off};

    GrowResult g;
    grow_result_init(&g);
    int64_t *pair_polys = (int64_t *)malloc((n_pairs ? n_pairs : 1) *
                                            sizeof(int64_t));
    Workspace ws;
    workspace_init(&ws);
    int failed = 0;

    for (int64_t i = 0; i < n_pairs && !failed; i++) {
        int32_t op = ops[i];
        int64_t npolys = 0;
        classes[i] = op == OP_INTERSECTION
            ? (int8_t)known_answer(&g, &S, &C, i, &npolys) : GATE_SWEPT;
        if (classes[i] != GATE_SWEPT) {
            pair_polys[i] = npolys;
            continue;
        }

        workspace_reset(&ws);
        double sbbox[4] = {INFINITY, INFINITY, -INFINITY, -INFINITY};
        double cbbox[4] = {INFINITY, INFINITY, -INFINITY, -INFINITY};
        int32_t contour_id = 0;

        /* fill_queue.rs:10-43: subject polys always increment the
           contour id; clipping only when op != Difference */
        fill_side(&ws.events, &ws.queue, &S, i, 1, &contour_id, 1, 1, sbbox);
        int inc = (op != OP_DIFFERENCE);
        fill_side(&ws.events, &ws.queue, &C, i, 0, &contour_id, inc, inc, cbbox);

        if (sbbox[0] > cbbox[2] || cbbox[0] > sbbox[2] ||
            sbbox[1] > cbbox[3] || cbbox[1] > sbbox[3]) {
            /* trivial result (mod.rs:132-141) */
            if (op != OP_INTERSECTION) {
                append_side_polys(&g, &S, i, &npolys);
                if (op != OP_DIFFERENCE)
                    append_side_polys(&g, &C, i, &npolys);
            }
            pair_polys[i] = npolys;
            continue;
        }

        Splay sweep_line;
        memset(&sweep_line, 0, sizeof(sweep_line));
        sweep_line.nodes = &ws.nodes;
        if (subdivide(&ws.events, &ws.queue, sbbox, cbbox, op,
                      &ws.sorted_events, &sweep_line) != 0) {
            failed = 3;
            break;
        }
        if (connect_edges(&ws.sorted_events, &ws.contours, &ws.connect) != 0) {
            failed = 2;
            break;
        }

        ContourVec *contours = &ws.contours;
        for (int64_t ci = 0; ci < contours->n; ci++) {
            Contour *c = &contours->data[ci];
            if (c->hole_of >= 0) continue;
            result_append_ring(&g.res, c->pts, c->n, &g.cap_v, &g.cap_r);
            for (int64_t hi = 0; hi < c->nh; hi++) {
                Contour *h = &contours->data[c->hole_ids[hi]];
                result_append_ring(&g.res, h->pts, h->n, &g.cap_v, &g.cap_r);
            }
            grow_result_poly(&g, 1 + c->nh);
            npolys++;
        }
        pair_polys[i] = npolys;
    }
    workspace_free(&ws);

    if (failed) {
        free(g.res.xy);
        free(g.res.ring_sizes);
        free(g.res.poly_ring_counts);
        free(pair_polys);
        *out_xy = NULL; *out_ring_sizes = NULL;
        *out_poly_ring_counts = NULL; *out_pair_poly_counts = NULL;
        *out_n_vertices = 0; *out_n_rings = 0; *out_n_polys = 0;
        return failed;
    }
    *out_xy = g.res.xy;
    *out_ring_sizes = g.res.ring_sizes;
    *out_poly_ring_counts = g.res.poly_ring_counts;
    *out_pair_poly_counts = pair_polys;
    *out_n_vertices = g.res.n_vertices;
    *out_n_rings = g.res.n_rings;
    *out_n_polys = g.res.n_polys;
    return 0;
}

void martinez_free_batch(double *xy, int64_t *ring_sizes,
                         int64_t *poly_ring_counts, int64_t *pair_poly_counts) {
    free(xy);
    free(ring_sizes);
    free(poly_ring_counts);
    free(pair_poly_counts);
}
