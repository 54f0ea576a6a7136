/* The compiled step of every fast algorithm, over elements of type `real`.
 *
 * One source, compiled once per element type (repro.codegen.cbackend
 * prepends `typedef double real;` or `typedef float real;`), that runs any
 * algorithm from its descriptor `fmm_t`: the chains of its S, T and C
 * sides as flat programs, one coefficient per term, each rank's operands
 * and the four shape variants of its product homes.  Programs list per
 * side the number of chains, then per chain its target, its number of
 * terms and its sources, the definitions first.  An index i >= 0 names
 * what lives outside the side's scratch -- an A (B) block, a product, a
 * C block -- and ~i row i of the scratch: of the S (T) slab, or of Y.
 *
 * A product lives in the C block whose chain reads it last, when that
 * chain reads it in its first pass (a home of kind 3); the rest live in a
 * consumed S or T row, or in a row of their own.  form_C reads each
 * product through its own row stride: ldc for one C holds, the block's
 * width for a slab row.
 *
 * form_S / form_T / form_C work on the rows [i0, i1) of their blocks and
 * touch no other row.  Each chain runs in passes of at most W terms over
 * a row, in its own term order, the first storing its target and every
 * later one adding to it: with -ffp-contract=off every entry rounds as
 * the chain written out in full would round it.  Every pass loop is
 * marked NODEP: its target is none of its own sources (the cemit analyzer
 * proves it of every descriptor) except the target itself, read and
 * written at the same j -- by an adding pass, or by the first pass of the
 * chain whose block holds a product it reads; buffers passed as different
 * arguments do not overlap (the caller's contract).
 *
 * fmm_team is the process's one team of threads.  repro.parallel.blas
 * installs it as OpenBLAS's threads callback, so every threaded vendor
 * region runs on it, and fmm_step runs its forms on it at T > 1 -- one
 * team for both, as the paper's MKL and its tasks share one OpenMP
 * runtime.  Its helpers block as soon as their region ends: an idle
 * process burns no core.
 */
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
#include <semaphore.h>
#include <stddef.h>
#include <stdlib.h>

#if defined(__clang__)
#define NODEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define NODEP _Pragma("GCC ivdep")
#else
#define NODEP
#endif

/* keep in step with cbackend._Fmm */
typedef struct {
    int bm, bk, bn, rank;
    int rows[3];            /* S and T slab rows, Y rows */
    const int *prog[3];     /* the S, T and C programs */
    const real *coef[3];    /* their coefficients, term by term */
    const int *operand;     /* [rank][2]: S and T operand, ~slab row or block */
    const int *home;        /* [4][rank][2]: 0 S row, 1 T row, 2 own row,
                               3 C block; its index */
} fmm_t;

enum { W = 10 };

#define LOOP(expr) NODEP for (long j = 0; j < len; ++j) d[j] = expr; return
#define X(u) const real *x##u = x[u], c##u = c[u];
#define T1 c0 * x0[j]
#define T2 T1 + c1 * x1[j]
#define T3 T2 + c2 * x2[j]
#define T4 T3 + c3 * x3[j]
#define T5 T4 + c4 * x4[j]
#define T6 T5 + c5 * x5[j]
#define T7 T6 + c6 * x6[j]
#define T8 T7 + c7 * x7[j]
#define T9 T8 + c8 * x8[j]
#define T10 T9 + c9 * x9[j]
#define X1 X(0)
#define X2 X1 X(1)
#define X3 X2 X(2)
#define X4 X3 X(3)
#define X5 X4 X(4)
#define X6 X5 X(5)
#define X7 X6 X(6)
#define X8 X7 X(7)
#define X9 X8 X(8)
#define X10 X9 X(9)

/* d[j] = c[0] x[0][j] + ... + c[n-1] x[n-1][j], left to right */
static void pass(int n, real *d, const real *const *x, const real *c,
                 long len)
{
    switch (n) {
    case 1: { X1 LOOP(T1); }
    case 2: { X2 LOOP(T2); }
    case 3: { X3 LOOP(T3); }
    case 4: { X4 LOOP(T4); }
    case 5: { X5 LOOP(T5); }
    case 6: { X6 LOOP(T6); }
    case 7: { X7 LOOP(T7); }
    case 8: { X8 LOOP(T8); }
    case 9: { X9 LOOP(T9); }
    case 10: { X10 LOOP(T10); }
    }
}

/* Where a side's operands sit: `in[i]` (an index i >= 0) at row 0, its
 * rows `ld[i]` apart; scratch row ~i at `row + i * rs`, rows `rld` apart;
 * and for C, target i >= 0 at `out[i]`, rows `old` apart. */
typedef struct {
    const real *const *in;
    const long *ld;
    real *const *out;
    real *row;
    size_t rs;
    long rld, old;
} at_t;

/* The chains of one program over the rows [i0, i1), row by row, a chain
 * in passes of at most W terms.  Every term and target is resolved once
 * a call, to its row 0 and row stride, so a row's pointers are one loop
 * away.  `done(arg, b, d, i)` runs after row i of a chain that stores C
 * block b. */
static void run(const int *prog, const real *coef, const at_t *at, long i0,
                long i1, long len, void (*done)(void *, int, real *, long),
                void *arg)
{
    const int nch = prog[0];
    if (nch == 0)           /* every chain an alias: nothing to form */
        return;
    int nt = 0;
    for (int ch = 0, pos = 1; ch < nch; ++ch, pos += 2 + prog[pos + 1])
        nt += prog[pos + 1];
    /* terms first, then one target a chain: bytes of row 0, row stride */
    size_t base[nt + nch], step[nt + nch];
    for (int ch = 0, pos = 1, t = 0; ch < nch; ++ch, pos += 2 + prog[pos + 1]) {
        const int tg = prog[pos];
        base[nt + ch] = (size_t)(tg < 0 ? at->row + (size_t)~tg * at->rs : at->out[tg]);
        step[nt + ch] = sizeof(real) * (tg < 0 ? at->rld : at->old);
        for (int u = 0; u < prog[pos + 1]; ++u, ++t) {
            const int s = prog[pos + 2 + u];
            base[t] = (size_t)(s < 0 ? at->row + (size_t)~s * at->rs : at->in[s]);
            step[t] = sizeof(real) * (s < 0 ? at->rld : at->ld[s]);
        }
    }
    real *xp[nt + nch];
    for (long i = i0; i < i1; ++i) {
        for (int t = 0; t < nt + nch; ++t)
            xp[t] = (real *)(base[t] + (size_t)i * step[t]);
        for (int ch = 0, pos = 1, t = 0; ch < nch; ++ch, pos += 2 + prog[pos + 1]) {
            const int n = prog[pos + 1];
            real *d = xp[nt + ch];
            pass(n < W ? n : W, d, (const real *const *)xp + t, coef + t, len);
            for (int u = W; u < n;) {   /* a later pass adds to what it stored */
                const real *x[W] = {d};
                real c[W] = {1};
                int m = 1;
                for (; m < W && u < n; ++m, ++u) {
                    x[m] = xp[t + u];
                    c[m] = coef[t + u];
                }
                pass(m, d, x, c, len);
            }
            if (done && prog[pos] >= 0)
                done(arg, prog[pos], d, i);
            t += n;
        }
    }
}

/* form_S (side 0) and form_T (side 1): the slab rows of the bp x bq blocks
 * of X, definitions first */
static void form_side(const fmm_t *f, int side, const real *X, long ldx,
                      long bp, long bq, real *S, long i0, long i1)
{
    const int cols = side ? f->bn : f->bk, nb = (side ? f->bk : f->bm) * cols;
    const real *in[nb];
    long ld[nb];
    for (int b = 0; b < nb; ++b) {
        in[b] = X + (size_t)(b / cols * bp) * ldx + (size_t)(b % cols) * bq;
        ld[b] = ldx;
    }
    const at_t at = {in, ld, NULL, S, (size_t)bp * (size_t)bq, bq, 0};
    run(f->prog[side], f->coef[side], &at, i0, i1, bq, NULL, NULL);
}

void form_S(const fmm_t *f, const real *X, long ldx, long bp, long bq,
            real *S, long i0, long i1)
{
    form_side(f, 0, X, ldx, bp, bq, S, i0, i1);
}

void form_T(const fmm_t *f, const real *X, long ldx, long bp, long bq,
            real *S, long i0, long i1)
{
    form_side(f, 1, X, ldx, bp, bq, S, i0, i1);
}

/* the peeled inner strip of each C block b: the rows of A12 and the
 * columns of B21 it takes, resolved once a call */
typedef struct {
    const real *const *a, *const *e;
    long lda, ldb, dq, bq;
} strip_t;

/* row i of C block b, once it is stored: += A12[i, t] B21[t, :], t < dq */
static void strip(void *arg, int b, real *d, long i)
{
    const strip_t *s = arg;
    const long bq = s->bq;
    const real *a = s->a[b] + (size_t)i * s->lda;
    for (long t = 0; t < s->dq; ++t) {
        const real ai = a[t], *e = s->e[b] + (size_t)t * s->ldb;
        NODEP
        for (long j = 0; j < bq; ++j)
            d[j] += ai * e[j];
    }
}

/* The bp x bq blocks of C from the rank's products M, rows ldm[r] apart,
 * each block row taking the peeled inner strip, C[i, :] += A12[i, t]
 * B21[t, :] for t < dq, right after it is stored.  Y holds the
 * definitions of one row. */
void form_C(const fmm_t *f, const real **M, const long *ldm, long bp,
            long bq, real *C, long ldc, real *Y, const real *A12, long lda,
            const real *B21, long ldb, long dq, long i0, long i1)
{
    const int bn = f->bn, nc = f->bm * bn;
    real *out[nc];
    const real *a[nc], *e[nc];
    for (int b = 0; b < nc; ++b) {
        out[b] = C + (size_t)(b / bn * bp) * ldc + (size_t)(b % bn) * bq;
        a[b] = A12 + (size_t)(b / bn * bp) * lda;
        e[b] = B21 + (size_t)(b % bn) * bq;
    }
    const at_t at = {M, ldm, out, Y, (size_t)bq, 0, ldc};
    strip_t s = {a, e, lda, ldb, dq, bq};
    run(f->prog[2], f->coef[2], &at, i0, i1, bq, dq ? strip : NULL, &s);
}

/* The team.  A region of n jobs, job i = fn(i, data + i * elsize, arg),
 * runs job 0 in the calling thread and jobs 1 .. n-1 on n - 1 helpers at
 * once: the vendor's jobs wait on one another, so none may queue behind
 * another.  Each helper blocks on its own semaphore between regions; the
 * team grows to the widest region's n - 1 helpers and never shrinks.
 * Regions of different threads take turns on the team: the vendor's job
 * i works in the vendor's buffer i, so two of its regions must not
 * overlap, as they never do on its own threads.  A region started inside
 * a job, which would wait for itself, runs on threads started for it
 * alone.  A forked child starts with no helpers. */
typedef void (*job_t)(int, void *, int);

/* jobs this thread is running: > 0 inside a region */
static __thread int inside;

typedef struct {
    job_t fn;
    char *data;
    size_t elsize;
    int arg;
} region_t;

static void job(const region_t *g, int i)
{
    ++inside;
    g->fn(i, g->data + (size_t)i * g->elsize, g->arg);
    --inside;
}

typedef struct {
    sem_t go;
    const region_t *g;
    int i;
} helper_t;

static struct {
    pthread_mutex_t own;    /* held by the caller of the region on the team */
    pthread_mutex_t lock;   /* guards left */
    pthread_cond_t done;    /* left fell to 0 */
    int left, size;         /* helper jobs still running; helpers */
    helper_t **helper;
} team = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_MUTEX_INITIALIZER,
          PTHREAD_COND_INITIALIZER, 0, 0, NULL};

static void *serve(void *arg)
{
    helper_t *h = arg;
    for (;;) {
        while (sem_wait(&h->go))        /* EINTR */
            ;
        job(h->g, h->i);
        pthread_mutex_lock(&team.lock);
        if (--team.left == 0)
            pthread_cond_signal(&team.done);
        pthread_mutex_unlock(&team.lock);
    }
    return NULL;
}

/* in a forked child: the helpers stayed behind, and so did any region */
static void forked(void)
{
    const pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;
    const pthread_cond_t c = PTHREAD_COND_INITIALIZER;
    team.own = team.lock = m;
    team.done = c;
    team.left = team.size = 0;
    team.helper = NULL;
}

static pthread_once_t once = PTHREAD_ONCE_INIT;

static void setup(void)
{
    pthread_atfork(NULL, NULL, forked);
}

/* grow the team to n helpers (caller holds own); how many it has */
static int grow(int n)
{
    if (n <= team.size)
        return team.size;
    helper_t **more = realloc(team.helper, (size_t)n * sizeof *more);
    if (!more)
        return team.size;
    team.helper = more;
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    while (team.size < n) {
        helper_t *h = malloc(sizeof *h);
        pthread_t id;
        if (!h || sem_init(&h->go, 0, 0) || pthread_create(&id, &attr, serve, h)) {
            free(h);
            break;
        }
        team.helper[team.size++] = h;
    }
    pthread_attr_destroy(&attr);
    return team.size;
}

typedef struct {
    const region_t *g;
    int i;
} solo_t;

static void *solo(void *arg)
{
    const solo_t *s = arg;
    job(s->g, s->i);
    return NULL;
}

/* the region on threads of its own; a job no thread could be started for
 * runs in the caller after job 0 */
static void alone(const region_t *g, int n)
{
    pthread_t id[n];
    solo_t s[n];
    int up[n];
    for (int i = 1; i < n; ++i) {
        s[i] = (solo_t){g, i};
        up[i] = !pthread_create(&id[i], NULL, solo, &s[i]);
    }
    job(g, 0);
    for (int i = 1; i < n; ++i) {
        if (up[i])
            pthread_join(id[i], NULL);
        else
            job(g, i);
    }
}

/* OpenBLAS's threads callback: run the region, then return */
void fmm_team(int sync, job_t fn, int n, size_t elsize, void *data, int arg)
{
    const region_t g = {fn, data, elsize, arg};
    (void)sync;             /* every region is waited for */
    if (n <= 1) {
        if (n == 1)
            job(&g, 0);
        return;
    }
    pthread_once(&once, setup);
    if (inside) {
        alone(&g, n);
        return;
    }
    pthread_mutex_lock(&team.own);
    if (grow(n - 1) < n - 1) {     /* no more helpers could be started */
        alone(&g, n);
    } else {
        team.left = n - 1;
        for (int i = 1; i < n; ++i) {
            helper_t *h = team.helper[i - 1];
            h->g = &g;
            h->i = i;
            sem_post(&h->go);
        }
        job(&g, 0);
        pthread_mutex_lock(&team.lock);
        while (team.left)
            pthread_cond_wait(&team.done, &team.lock);
        pthread_mutex_unlock(&team.lock);
    }
    pthread_mutex_unlock(&team.own);
}

/* The sequential product, `steps` levels deep: one vendor product where
 * repro.core.recursion.should_split declines, else S and T, each rank's
 * product into its home -- a slab row, or the block of C that holds it,
 * rows ldc apart -- by a call to itself, C with the inner strip and
 * the right and bottom peel strips, every level carved from [w, end) in
 * repro.core.workspace.cbackend_footprint's order and rounding.  `mm`
 * issues one product as np.matmul does.  At `threads` > 1 each level's
 * S and T, and its C where the descriptor has no C-side definitions (they
 * share one Y row), run over `threads` row ranges on x->team, the caller
 * taking one; a range never reorders a chain's terms, so the bits are the
 * one-thread step's.  Runs a few statements a level: unoptimised, it adds
 * almost nothing to the compile. */
typedef struct {
    void (*gemm)(int, int, int, long, long, long, real, const real *, long, const real *, long, real, real *, long);
    void (*gemv)(int, int, long, long, real, const real *, long, const real *, long, real, real *, long);
    real (*dot)(long, const real *, long, const real *, long);
    void (*team)(int, job_t, int, size_t, void *, int);     /* fmm_team, or NULL */
} blas_t;

#pragma GCC optimize("O0")

static void mm(const blas_t *x, long M, long N, long K, const real *A, long lda, const real *B, long ldb, real *C, long ldc)
{
    if (M == 0 || N == 0)
        return;
    if (M == 1 && N == 1)
        C[0] = (real)(0.0 + x->dot(K, A, 1, B, ldb));
    else if (K <= 1)
        for (long i = 0; i < M; ++i)
            for (long j = 0; j < N; ++j)
                C[i * ldc + j] = K ? (real)0 + A[i * lda] * B[j] : (real)0;
    else if (M == 1)
        x->gemv(101, 112, K, N, 1, B, ldb, A, 1, 0, C, 1);
    else if (N == 1)
        x->gemv(102, 112, K, M, 1, A, lda, B, ldb, 0, C, ldc);
    else
        x->gemm(101, 111, 111, M, N, K, 1, A, lda, B, ldb, 0, C, ldc);
}

static real *carve(char **w, char *end, size_t n)
{
    char *p = n ? (char *)(((size_t)*w + 63) & ~(size_t)63) : *w;
    if (p > end || (size_t)(end - p) < n * sizeof(real))
        return NULL;
    *w = p + n * sizeof(real);
    return (real *)p;
}

/* one level's kernels; job i of n runs row range i of n */
typedef struct {
    const fmm_t *f;
    const real *A, *B, *A12, *B21, **H;
    const long *L;
    long lda, ldb, ldc, bp, bq, bn, dq;
    real *S, *T, *C, *Y;
} level_t;

static long cut(long rows, int i, int n)
{
    return rows * i / n;
}

static void forms(int i, void *arg, int n)
{
    const level_t *l = arg;
    form_S(l->f, l->A, l->lda, l->bp, l->bq, l->S, cut(l->bp, i, n), cut(l->bp, i + 1, n));
    form_T(l->f, l->B, l->ldb, l->bq, l->bn, l->T, cut(l->bq, i, n), cut(l->bq, i + 1, n));
}

static void combine(int i, void *arg, int n)
{
    const level_t *l = arg;
    form_C(l->f, l->H, l->L, l->bp, l->bn, l->C, l->ldc, l->Y, l->A12, l->lda, l->B21, l->ldb, l->dq, cut(l->bp, i, n), cut(l->bp, i + 1, n));
}

static void ranges(const blas_t *x, job_t fn, int n, level_t *l)
{
    if (n > 1 && x->team)
        x->team(1, fn, n, 0, l, n);
    else
        fn(0, l, 1);
}

int fmm_step(const fmm_t *f, const blas_t *x, long steps, int threads, const real *A, long lda, const real *B, long ldb, real *C, long ldc, long p, long q, long r, char *w, char *end)
{
    const long BM = f->bm, BK = f->bk, BN = f->bn, R = f->rank;
    if (steps <= 0 || p / BM < 2 || q / BK < 2 || r / BN < 2) {
        mm(x, p, r, q, A, lda, B, ldb, C, ldc);
        return 0;
    }
    const long bp = p / BM, bq = q / BK, bn = r / BN;
    const size_t sblk = (size_t)bp * bq, tblk = (size_t)bq * bn, pblk = (size_t)bp * bn;
    const int *home = f->home + 2 * R * ((bn <= bq) + 2 * (bp <= bq));
    long own = 0;
    for (long i = 0; i < R; ++i)
        own += home[2 * i] == 2;
    real *S = carve(&w, end, f->rows[0] * sblk), *T = carve(&w, end, f->rows[1] * tblk);
    real *P = carve(&w, end, own * pblk), *Y = carve(&w, end, f->rows[2] * (size_t)bn);
    if (!S || !T || !P || !Y)
        return -1;
    real *const slab[3] = {S, T, P};
    const size_t blk[3] = {sblk, tblk, pblk};
    const real *H[R];
    long L[R];
    level_t lv = {f, A, B, A + BK * bq, B + (size_t)(BK * bq) * ldb, H, L, lda, ldb, ldc, bp, bq, bn, q - BK * bq, S, T, C, Y};
    ranges(x, forms, threads, &lv);
    for (long i = 0; i < R; ++i) {
        /* its S and T operand: a slab row, or an alias chain's block */
        const int a = f->operand[2 * i], b = f->operand[2 * i + 1];
        const real *Sa = a < 0 ? S + ~a * sblk : A + (size_t)(a / BK * bp) * lda + a % BK * bq;
        const real *Tb = b < 0 ? T + ~b * tblk : B + (size_t)(b / BN * bq) * ldb + b % BN * bn;
        const int kind = home[2 * i], at = home[2 * i + 1];
        real *h = kind == 3 ? C + (size_t)(at / BN * bp) * ldc + at % BN * bn : slab[kind] + at * blk[kind];
        H[i] = h;
        L[i] = kind == 3 ? ldc : bn;
        if (fmm_step(f, x, steps - 1, threads, Sa, a < 0 ? bq : lda, Tb, b < 0 ? bn : ldb, h, L[i], bp, bq, bn, w, end))
            return -1;
    }
    ranges(x, combine, f->rows[2] ? 1 : threads, &lv);
    if (BN * bn < r)
        mm(x, BM * bp, r - BN * bn, q, A, lda, B + BN * bn, ldb, C + BN * bn, ldc);
    if (BM * bp < p)
        mm(x, p - BM * bp, r, q, A + (size_t)(BM * bp) * lda, lda, B, ldb, C + (size_t)(BM * bp) * ldc, ldc);
    return 0;
}
