/* One RK4 step of cohsync's network integrator, for either protocol.
 *
 * cohsync.simulate compiles this file on first use and calls
 * cohsync_step through ctypes on the arrays its numpy path binds, in the
 * same layout: the workspace W and the stage product F column by column
 * with leading dimension span (the agents, or 2 for a lone agent), the
 * state rows S column by column with leading dimension rows, and the
 * stage derivatives K[j] as (state, rows) blocks, agents along the fast
 * axis.  Every operation is the one the numpy path makes, in its order:
 * each sum starts from +0 and adds its terms one after another, each term
 * is the product the numpy path rounds, and no product is fused with an
 * addition (the file is compiled with -ffp-contract=off and without
 * -ffast-math).  The loops run along the agents, block by block, so
 * vectorizing them never reorders one agent's sum.  So the bits of every
 * result are those of the numpy path.
 */

#include <stdint.h>
#include <string.h>

/* The loops along the agents, built for the widest vector unit the CPU
 * has: vector adds, multiplies and compares round each lane as the scalar
 * ones do, so every version gives the same bits. */
#if defined(__GNUC__) && defined(__x86_64__)
#define ALONG_AGENTS __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ALONG_AGENTS
#endif

enum { DONE = 0, RECORD = 1, GAINS = 2 };
enum { NONCOLLABORATIVE = 0, COLLABORATIVE = 1 };

/* Mirrored field by field by cohsync._native._Run. */
struct run {
    int64_t rows, span;   /* agents; leading dimension of W and F */
    int64_t state;        /* state columns [x, protocol state] */
    int64_t sums;         /* Laplacian columns: the first sums of the state */
    int64_t wd;           /* disturbance channels */
    int64_t fcols;        /* stage product columns */
    int64_t lap_width;    /* Laplacian slots per row */
    int64_t slots;        /* stage matrix slots per column */
    int64_t law, n, m, k; /* law code; states, inputs; n1 or outputs p */
    int64_t keyed;        /* key holds the alpha column of the last gather */
    int64_t stage, phase; /* where the step resumes: stage j, its X formed if phase */
    double d, half, dt, envelope;
    double weights[4];
    double *W, *F, *K, *S, *S_next;
    int64_t *lap_cols;    /* (lap_width, rows) */
    double *lap_vals;
    int64_t *idx;         /* (fcols, slots) */
    double *val;
    double *sums_buf;     /* (2, span): [proxy, drive] or [exchange, mismatch] */
    double *u;            /* (m, span) U' */
    double *gain;         /* (m, n, span) B'P_k of each agent's cell */
    double *B;            /* (n, m) */
    double *key;          /* (rows,) */
};

/* Agents a block: the stage product and the law run block by block, so
 * that a block's columns stay in the L1 cache. */
#define BLOCK 256

/* The stage's state rows X: S, or S plus h times the last stage's
 * derivative. */
ALONG_AGENTS static void form_x(struct run *r, int64_t j)
{
    const int64_t rows = r->rows, span = r->span;
    double *W = r->W;
    if (j == 0) {
        for (int64_t c = 0; c < r->state; c++)
            memcpy(W + c * span, r->S + c * rows, rows * sizeof(double));
        return;
    }
    const double h = j == 3 ? r->dt : r->half;
    const double *Kj = r->K + (j - 1) * r->state * rows;
    for (int64_t c = 0; c < r->state; c++) {
        double *restrict x = W + c * span;
        const double *restrict kc = Kj + c * rows, *restrict s = r->S + c * rows;
        for (int64_t i = 0; i < rows; i++)
            x[i] = kc[i] * h + s[i];
    }
}

/* The rest of the workspace rows lo..hi, w(t) and the network sums L X,
 * and their stage product F = W M; rows from r->rows on (a lone agent's
 * zero row) enter the product alone. */
ALONG_AGENTS static void products(struct run *r, const double *w, int64_t lo, int64_t hi)
{
    const int64_t rows = r->rows, span = r->span, top = hi < rows ? hi : rows;
    double *W = r->W;
    if (w)
        for (int64_t c = 0; c < r->wd; c++)
            memcpy(W + (r->state + r->sums + c) * span + lo, w + c * rows + lo, (top - lo) * sizeof(double));
    for (int64_t c = 0; c < r->sums; c++) {
        const double *restrict x = W + c * span;
        double *restrict out = W + (r->state + c) * span;
        for (int64_t i = lo; i < top; i++)
            out[i] = 0.0;
        for (int64_t s = 0; s < r->lap_width; s++) {
            const int64_t *restrict cols = r->lap_cols + s * rows;
            const double *restrict vals = r->lap_vals + s * rows;
            for (int64_t i = lo; i < top; i++)
                out[i] += x[cols[i]] * vals[i];
        }
    }
    for (int64_t f = 0; f < r->fcols; f++) {
        double *restrict out = r->F + f * span;
        for (int64_t i = lo; i < hi; i++)
            out[i] = 0.0;
        for (int64_t s = 0; s < r->slots; s++) {
            const double *restrict x = W + r->idx[f * r->slots + s] * span;
            const double v = r->val[f * r->slots + s];
            for (int64_t i = lo; i < hi; i++)
                out[i] += x[i] * v;
        }
    }
}

/* NoncollabDesign.law on agents lo..hi: F = [A x + E w, d xi1_hat / dt,
 * xi_hat, xi_hat P, -gain_row xi_hat, -B gain_row xi_hat], protocol state
 * [xi1_hat, rho]. */
ALONG_AGENTS static void noncollab(struct run *r, double *out, int64_t lo, int64_t hi)
{
    const int64_t rows = r->rows, span = r->span, n = r->n, m = r->m, n1 = r->k;
    const double *F = r->F, *restrict rho = r->W + (n + n1) * span;
    const double *AXW = F, *DXI1 = F + n * span, *XH = F + (n + n1) * span;
    const double *XHP = XH + n * span, *NGX = XHP + n * span, *NBGX = NGX + m * span;
    double *restrict proxy = r->sums_buf, *restrict drive = r->sums_buf + span;
    for (int64_t i = lo; i < hi; i++)
        proxy[i] = drive[i] = 0.0;
    for (int64_t c = 0; c < n; c++)
        for (int64_t i = lo; i < hi; i++)
            proxy[i] += XH[c * span + i] * XHP[c * span + i];
    for (int64_t c = 0; c < m; c++)
        for (int64_t i = lo; i < hi; i++)
            drive[i] += NGX[c * span + i] * NGX[c * span + i];
    for (int64_t c = 0; c < n; c++) {
        double *restrict dx = out + c * rows;
        for (int64_t i = lo; i < hi; i++)
            dx[i] = rho[i] * NBGX[c * span + i] + AXW[c * span + i];
    }
    for (int64_t c = 0; c < n1; c++)
        memcpy(out + (n + c) * rows + lo, DXI1 + c * span + lo, (hi - lo) * sizeof(double));
    double *restrict drho = out + (n + n1) * rows;
    for (int64_t i = lo; i < hi; i++)
        drho[i] = drive[i] * (double)(proxy[i] >= r->d);
}

/* Whether the alpha column is the key's: the gain buffer then holds the
 * gathered rows of every agent. */
static int keyed(const struct run *r)
{
    const double *alpha = r->W + (2 * r->n + 1) * r->span;
    return r->keyed && memcmp(alpha, r->key, r->rows * sizeof(double)) == 0;
}

/* CollabDesign.law on agents lo..hi: F = [A x + E w, A x_hat, Q C' e,
 * x_hat + zeta_tilde, C zeta_tilde, e], protocol state [x_hat, rho,
 * alpha]. */
ALONG_AGENTS static void collab(struct run *r, double *out, int64_t lo, int64_t hi)
{
    const int64_t rows = r->rows, span = r->span, n = r->n, m = r->m, p = r->k;
    const double *F = r->F, *restrict rho = r->W + 2 * n * span, *restrict alpha = rho + span;
    const double *AXW = F, *AXH = F + n * span, *QCE = AXH + n * span;
    const double *XZ = QCE + n * span, *CZ_E = XZ + n * span;
    const double *restrict exchange = r->sums_buf, *restrict mismatch = r->sums_buf + span;
    for (int64_t e = 0; e < 2; e++) {
        double *restrict into = r->sums_buf + e * span;
        const double *restrict v = CZ_E + e * p * span;
        for (int64_t i = lo; i < hi; i++)
            into[i] = 0.0;
        for (int64_t c = 0; c < p; c++)
            for (int64_t i = lo; i < hi; i++)
                into[i] += v[c * span + i] * v[c * span + i];
    }
    for (int64_t l = 0; l < m; l++) {
        double *restrict u = r->u + l * span;
        const double *restrict g = r->gain + l * n * span;
        for (int64_t i = lo; i < hi; i++)
            u[i] = 0.0;
        for (int64_t c = 0; c < n; c++)
            for (int64_t i = lo; i < hi; i++)
                u[i] += g[c * span + i] * XZ[c * span + i];
        /* -alpha u, and +0 where alpha is not positive */
        for (int64_t i = lo; i < hi; i++)
            u[i] = alpha[i] > 0.0 ? -alpha[i] * u[i] : 0.0;
    }
    double *restrict dx = out, *restrict dx_hat = out + n * rows;
    const double *restrict u = r->u;
    for (int64_t c = 0; c < n; c++) {
        for (int64_t i = lo; i < hi; i++) {
            double bu = 0.0;
            for (int64_t l = 0; l < m; l++)
                bu += r->B[c * m + l] * u[l * span + i];
            dx[c * rows + i] = AXW[c * span + i] + bu;
            dx_hat[c * rows + i] = (AXH[c * span + i] - rho[i] * QCE[c * span + i]) + bu;
        }
    }
    double *restrict drho = out + 2 * n * rows, *restrict dalpha = drho + rows;
    for (int64_t i = lo; i < hi; i++) {
        const double ex = exchange[i], gate = (double)(ex >= r->d);
        drho[i] = mismatch[i] * (double)(mismatch[i] >= r->d);
        /* np.minimum: NaN if either is, else the smaller */
        dalpha[i] = ex != ex ? ex : ex < gate ? ex : gate;
    }
}

/* S_next = S + ((((+0 + w0 K0) + w1 K1) + w2 K2) + w3 K3); max |S_next|,
 * NaN when an entry is NaN. */
static double combine(struct run *r)
{
    const int64_t size = r->state * r->rows;
    const double *K = r->K;
    double envelope = 0.0;
    int nan = 0;
    for (int64_t i = 0; i < size; i++) {
        double ds = 0.0;
        for (int64_t j = 0; j < 4; j++)
            ds += K[j * size + i] * r->weights[j];
        const double s = r->S[i] + ds, a = s < 0.0 ? -s : s;
        r->S_next[i] = s;
        nan |= s != s;
        envelope = a > envelope ? a : envelope;
    }
    return nan ? __builtin_nan("") : envelope;
}

/* Advances the run's step from where it stopped: DONE with the step made
 * (S and S_next swapped, envelope set), RECORD after the first stage when
 * record is set, GAINS before a collaborative law whose alpha column is
 * not the key's.  w points at the step's three (wd, rows) disturbance
 * blocks, at t, t + dt/2 and t + dt, or is NULL for no disturbance. */
int cohsync_step(struct run *r, double *w, int64_t record)
{
    for (;;) {
        const int64_t j = r->stage, rows = r->rows, span = r->span;
        double *out = r->K + j * r->state * rows;
        if (!r->phase) {
            form_x(r, j);
            r->phase = 1;
        }
        if (r->law == COLLABORATIVE && !keyed(r))
            return GAINS;
        const double *wj = w ? w + (j == 0 ? 0 : j == 3 ? 2 : 1) * r->wd * rows : NULL;
        for (int64_t lo = 0; lo < span; lo += BLOCK) {
            const int64_t hi = lo + BLOCK < span ? lo + BLOCK : span, top = hi < rows ? hi : rows;
            products(r, wj, lo, hi);
            if (lo >= top)
                continue;
            if (r->law == COLLABORATIVE)
                collab(r, out, lo, top);
            else
                noncollab(r, out, lo, top);
        }
        r->phase = 0;
        if (j == 3) {
            double *S = r->S;
            r->envelope = combine(r);
            r->S = r->S_next;
            r->S_next = S;
            r->stage = 0;
            return DONE;
        }
        r->stage = j + 1;
        if (j == 0 && record)
            return RECORD;
    }
}
