/* cohsync's network step kernel, for either protocol: RK4 steps from one
 * step to a stop step in one call (cohsync_run), with the recorded
 * samples and the P_alpha gain gather; and (cohsync_csv, at the end of
 * the file) the rows of trajectory.csv.  A step is atomic: a call that
 * stops inside one, for a P_alpha cell to solve, leaves the whole step to
 * be made again.
 *
 * cohsync.simulate compiles this file on first use; its one driver,
 * _integrate, calls cohsync_run through ctypes for each w(t) window, on
 * the arrays its numpy path binds, in the same layout: the workspace W
 * and the stage product F column by column with leading dimension span
 * (the agents, or 2 for a lone agent), the state rows S column by column
 * with leading dimension rows, and the stage derivatives K[j] as (state,
 * rows) blocks, agents along the fast axis.  One array is the library's
 * own: agent_x, which cohsync._native allocates zeroed and aligned to 64
 * bytes, holds the first sums columns of the stage's X agent-major, pitch
 * doubles an agent (sums rounded up to LANES), so that the Laplacian loop
 * reads a neighbour's sums from one contiguous run; its pad lanes stay
 * zero.
 *
 * Every operation is the one the numpy path makes, in its order: each sum
 * starts from +0 and adds its terms one after another, each term is the
 * product the numpy path rounds, and no product is fused with an addition
 * (the file is compiled with -ffp-contract=off and without -ffast-math).
 * The stage product skips the zero weights that pad the numpy path's
 * columns to the widest: a sum from +0 is never -0, so adding x 0 to it
 * changes nothing while x is finite, and a non-finite x makes S_next
 * non-finite at the same step either way.  The loops run along the agents,
 * block by block, or, in the Laplacian loop, along an agent's sums
 * columns, LANES at a time; a vector lane rounds as a scalar does, and no
 * loop is vectorized across the terms of one sum, so no sum is reordered.
 * Transposing a block between W's columns and agent_x only moves bits.
 * So the bits of every result are those of the numpy path.  The envelope,
 * max |S_next|, is taken on the bits of |s|, which order as the numbers do
 * and put every NaN above +inf.  What the run records and gathers is
 * copied, never computed, but for the noncollaborative controls rho NGX,
 * the numpy path's one multiply.
 *
 * The vector type and shuffles are GCC's (and clang's) vector extensions;
 * a compiler without them fails the build, and cohsync takes its numpy
 * path.
 */

#include <math.h>
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

enum { DONE = 0, GAINS = 1, ENVELOPE = 2 };
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
    int64_t step;         /* the step to make next, from its first stage */
    int64_t n_steps;      /* the last step, which makes its first stage alone */
    int64_t stride;       /* steps from one recorded sample to the next */
    int64_t points;       /* grid points of the gather */
    int64_t pitch;        /* doubles per agent in agent_x: sums rounded up to LANES */
    double d, half, dt, envelope, limit;
    double weights[4];
    double *W, *F, *K, *S, *S_next;
    double *agent_x;      /* (rows, pitch) the first sums columns of X, pad lanes zero */
    int64_t *lap_cols;    /* (lap_width, rows) */
    double *lap_vals;
    int64_t *idx;         /* (fcols, slots) */
    double *val;
    int64_t *count;       /* (fcols,) nonzero slots, each column's first */
    double *sums_buf;     /* (2, span): [proxy, drive] or [exchange, mismatch] */
    double *u;            /* (m, span) U' */
    double *gain;         /* (m, n, span) B'P_k of each agent's cell */
    double *B;            /* (n, m) */
    double *key;          /* (rows,) */
    double *point;        /* (points,) PAlphaGrid._points */
    uint8_t *solved;      /* (points + 1,) PAlphaGrid._solved */
    double *table;        /* (points + 1, m, n) PAlphaGrid._table */
    /* The record, sample first, agents next: (rows, state) state rows,
     * (rows, n) L x, (rows, m) controls, (rows,) proxy or mismatch and
     * (rows,) exchange (NULL for the noncollaborative law). */
    double *states, *lx, *controls, *energy, *exchange;
};

/* Agents a block: the stage product and the law run block by block, so
 * that a block's columns stay in the L1 cache. */
#define BLOCK 256

/* Doubles a vector of the Laplacian loop holds: an agent's network-sum
 * columns LANES at a time, and LANES agents a block transposed. */
#define LANES 4

/* LANES doubles: one register of the widest vector unit, or several of a
 * narrower one, each lane rounded as a scalar double is.  A lanes is read
 * and written on its own alignment, as in agent_x; a lanes_at at any
 * double. */
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));
typedef double lanes_at __attribute__((vector_size(LANES * sizeof(double)), aligned(sizeof(double)), may_alias));

#if defined(__clang__)
#define SHUFFLE(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
typedef int64_t picks __attribute__((vector_size(LANES * sizeof(int64_t))));
#define SHUFFLE(a, b, ...) __builtin_shuffle(a, b, (picks){__VA_ARGS__})
#endif

/* The LANES x LANES block m, a row a vector, transposed in place: the
 * rows' pairs interleaved, then the pairs' halves joined. */
static inline void transpose(lanes m[LANES])
{
    lanes t[LANES];
    for (int k = 0; k < LANES; k += 2) {
        t[k] = SHUFFLE(m[k], m[k + 1], 0, 4, 2, 6);
        t[k + 1] = SHUFFLE(m[k], m[k + 1], 1, 5, 3, 7);
    }
    for (int k = 0; k < 2; k++) {
        m[k] = SHUFFLE(t[k], t[k + 2], 0, 1, 4, 5);
        m[k + 2] = SHUFFLE(t[k], t[k + 2], 2, 3, 6, 7);
    }
}

/* The stage's state rows X: S, or S plus h times the last stage's
 * derivative.  The first sums columns go to agent_x too, each agent's
 * side by side, in the same pass: LANES columns of LANES agents at a
 * time, transposed in registers, the pad columns zero. */
ALONG_AGENTS static void form_x(struct run *r, int64_t j)
{
    const int64_t rows = r->rows, span = r->span, pitch = r->pitch, sums = r->sums;
    const int64_t whole = rows - rows % LANES;
    const double h = j == 3 ? r->dt : r->half;
    const double *K = j ? r->K + (j - 1) * r->state * rows : NULL, *S = r->S;
    double *W = r->W, *agent_x = r->agent_x;
    for (int64_t i = 0; i < whole; i += LANES)
        for (int64_t c0 = 0; c0 < sums; c0 += LANES) {
            const int64_t width = sums - c0 < LANES ? sums - c0 : LANES;
            lanes m[LANES];
            for (int c = 0; c < LANES; c++) {
                const int64_t at = (c0 + c) * rows + i;
                m[c] = (lanes){0.0};
                if (c < width) {
                    m[c] = *(const lanes_at *)(S + at);
                    if (K)
                        m[c] = *(const lanes_at *)(K + at) * h + m[c];
                    *(lanes_at *)(W + (c0 + c) * span + i) = m[c];
                }
            }
            transpose(m);
            for (int k = 0; k < LANES; k++)
                *(lanes *)(agent_x + (i + k) * pitch + c0) = m[k];
        }
    for (int64_t i = whole; i < rows; i++)
        for (int64_t c = 0; c < sums; c++) {
            const double s = S[c * rows + i];
            W[c * span + i] = agent_x[i * pitch + c] = K ? K[c * rows + i] * h + s : s;
        }
    for (int64_t c = sums; c < r->state; c++) {
        double *restrict x = W + c * span;
        const double *restrict s = S + c * rows;
        if (!K) {
            memcpy(x, s, rows * sizeof(double));
            continue;
        }
        const double *restrict kc = K + c * rows;
        for (int64_t i = 0; i < rows; i++)
            x[i] = kc[i] * h + s[i];
    }
}

/* The rest of the workspace rows lo..hi, w(t) and the network sums L X,
 * and their stage product F = W M over each column's nonzero slots; rows
 * from r->rows on (a lone agent's zero row) enter the product alone. */
ALONG_AGENTS static void products(struct run *r, const double *w, int64_t lo, int64_t hi)
{
    const int64_t rows = r->rows, span = r->span, top = hi < rows ? hi : rows;
    double *W = r->W;
    if (w)
        for (int64_t c = 0; c < r->wd; c++)
            memcpy(W + (r->state + r->sums + c) * span + lo, w + c * rows + lo, (top - lo) * sizeof(double));
    /* L X, LANES rows at a time: each row's sums start from +0 and add the
     * row's slots in order.  A slot's neighbour index and weight are read
     * once for up to 2 LANES columns, the neighbour's run of agent_x; the
     * two blocks of sums are transposed into W.  The rows past the last
     * whole LANES are summed one at a time. */
    const int64_t pitch = r->pitch, sums = r->sums, width = r->lap_width;
    const int64_t *cols = r->lap_cols, whole = top - (top - lo) % LANES;
    const double *vals = r->lap_vals, *agent_x = r->agent_x;
    double *out = W + r->state * span;
    for (int64_t c0 = 0; c0 < sums; c0 += 2 * LANES) {
        const int64_t n = sums - c0 < 2 * LANES ? sums - c0 : 2 * LANES;
        for (int64_t i = lo; i < whole; i += LANES) {
            lanes a[LANES], b[LANES];
            for (int k = 0; k < LANES; k++) {
                a[k] = b[k] = (lanes){0.0};
                for (int64_t s = 0; s < width; s++) {
                    const double *x = agent_x + cols[s * rows + i + k] * pitch + c0;
                    const double v = vals[s * rows + i + k];
                    a[k] += *(const lanes *)x * v;
                    if (n > LANES)
                        b[k] += *(const lanes *)(x + LANES) * v;
                }
            }
            transpose(a);
            for (int c = 0; c < n && c < LANES; c++)
                *(lanes_at *)(out + (c0 + c) * span + i) = a[c];
            if (n > LANES) {
                transpose(b);
                for (int c = LANES; c < n; c++)
                    *(lanes_at *)(out + (c0 + c) * span + i) = b[c - LANES];
            }
        }
    }
    for (int64_t i = whole; i < top; i++)
        for (int64_t c = 0; c < sums; c++) {
            double sum = 0.0;
            for (int64_t s = 0; s < width; s++)
                sum += agent_x[cols[s * rows + i] * pitch + c] * vals[s * rows + i];
            out[c * span + i] = sum;
        }
    for (int64_t f = 0; f < r->fcols; f++) {
        double *restrict out = r->F + f * span;
        for (int64_t i = lo; i < hi; i++)
            out[i] = 0.0;
        for (int64_t s = 0; s < r->count[f]; s++) {
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

/* The collaborative law's alpha column in the workspace. */
static const double *alpha_column(const struct run *r)
{
    return r->W + (2 * r->n + 1) * r->span;
}

/* Whether the alpha column is the key's: the gain buffer then holds the
 * gathered rows of every agent. */
static int keyed(const struct run *r)
{
    return r->keyed && memcmp(alpha_column(r), r->key, r->rows * sizeof(double)) == 0;
}

/* PAlphaGrid.gain_rows into the gain buffer, for the alpha column of the
 * workspace, as the collaborative law's regather calls it: each agent's
 * position among the grid points by a right-side binary search, an alpha
 * that is not positive (NaN too) searched as 1.0, and its cell's B'P_k
 * copied from the table, agents along the fast axis; the alpha column
 * becomes the key.  0, with the key left unset, when some position holds
 * no cached cell: Python then solves it, or finds that it has no solution. */
static int gather(struct run *r)
{
    const int64_t rows = r->rows, span = r->span, cells = r->m * r->n;
    const double *alpha = alpha_column(r);
    for (int64_t i = 0; i < rows; i++) {
        const double a = alpha[i] > 0.0 ? alpha[i] : 1.0;
        int64_t lo = 0, hi = r->points;
        while (lo < hi) {
            const int64_t mid = lo + (hi - lo) / 2;
            if (r->point[mid] <= a)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (!r->solved[lo])
            return 0;
        const double *rows_k = r->table + lo * cells;
        for (int64_t c = 0; c < cells; c++)
            r->gain[c * span + i] = rows_k[c];
    }
    memcpy(r->key, alpha, rows * sizeof(double));
    r->keyed = 1;
    return 1;
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

/* The sample of the step's first stage, copied into the record: the state
 * rows, the L x block, the controls (rho NGX, or U'), the proxy or the
 * mismatch, and the exchange. */
static void record(struct run *r)
{
    const int64_t rows = r->rows, span = r->span, state = r->state, n = r->n, m = r->m;
    const int64_t sample = (r->step + r->stride - 1) / r->stride;
    double *states = r->states + sample * rows * state, *lx = r->lx + sample * rows * n;
    double *controls = r->controls + sample * rows * m, *energy = r->energy + sample * rows;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t c = 0; c < state; c++)
            states[i * state + c] = r->S[c * rows + i];
    for (int64_t i = 0; i < rows; i++)
        for (int64_t c = 0; c < n; c++)
            lx[i * n + c] = r->W[(state + c) * span + i];
    if (r->law == COLLABORATIVE) {
        for (int64_t i = 0; i < rows; i++)
            for (int64_t l = 0; l < m; l++)
                controls[i * m + l] = r->u[l * span + i];
        memcpy(energy, r->sums_buf + span, rows * sizeof(double));
        memcpy(r->exchange + sample * rows, r->sums_buf, rows * sizeof(double));
    } else {
        const double *rho = r->W + (n + r->k) * span, *NGX = r->F + (3 * n + r->k) * span;
        for (int64_t i = 0; i < rows; i++)
            for (int64_t l = 0; l < m; l++)
                controls[i * m + l] = rho[i] * NGX[l * span + i];
        memcpy(energy, r->sums_buf, rows * sizeof(double));
    }
}

/* S_next = S + ((((+0 + w0 K0) + w1 K1) + w2 K2) + w3 K3); max |S_next|
 * taken on the bits of |s|: for doubles of sign +, their order as uint64 is
 * the numbers' order, and every NaN's lies above +inf's, so the maximum is
 * a NaN when an entry is. */
ALONG_AGENTS static double combine(struct run *r)
{
    const int64_t size = r->state * r->rows;
    const double *restrict K = r->K, *restrict S = r->S;
    const double w0 = r->weights[0], w1 = r->weights[1], w2 = r->weights[2], w3 = r->weights[3];
    double *restrict S_next = r->S_next;
    uint64_t top = 0;
    for (int64_t i = 0; i < size; i++) {
        const double s = S[i] + ((((0.0 + K[i] * w0) + K[size + i] * w1) + K[2 * size + i] * w2) + K[3 * size + i] * w3);
        uint64_t bits;
        memcpy(&bits, &s, sizeof bits);
        bits &= ~(UINT64_C(1) << 63);
        S_next[i] = s;
        top = bits > top ? bits : top;
    }
    double envelope;
    memcpy(&envelope, &top, sizeof envelope);
    return envelope;
}

/* Makes the run's steps from r->step up to the step stop, the last step
 * n_steps only its first stage, and records the first stage of steps 0,
 * stride, 2 stride, ... and n_steps.  Returns DONE at stop; ENVELOPE after
 * a step whose max |S_next| (r->envelope, NaN when an entry is NaN) is not
 * at most r->limit, with S and S_next swapped as after every step; GAINS
 * when a stage of the collaborative law finds its alpha column on a grid
 * cell not cached.  A step is atomic: after GAINS, r->step is the step to
 * make again from its first stage, which gives the same bits, since every
 * stage is a function of S, K and the grid alone, and a sample recorded
 * again is overwritten with the same bits.  w points at the (wd, rows)
 * disturbance blocks at t, t + dt/2 and t + dt of the steps from first on,
 * or is NULL for no disturbance. */
int cohsync_run(struct run *r, const double *w, int64_t first, int64_t stop)
{
    for (; r->step < stop; r->step++) {
        const int64_t k = r->step, rows = r->rows, span = r->span;
        const double *wk = w ? w + (k - first) * 3 * r->wd * rows : NULL;
        for (int64_t j = 0; j < 4; j++) {
            double *out = r->K + j * r->state * rows;
            form_x(r, j);
            if (r->law == COLLABORATIVE && !keyed(r) && !gather(r))
                return GAINS;
            const double *wj = wk ? wk + (j == 0 ? 0 : j == 3 ? 2 : 1) * r->wd * rows : NULL;
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
            if (j == 0 && (k % r->stride == 0 || k == r->n_steps)) {
                record(r);
                if (k == r->n_steps) {
                    r->step = k + 1;
                    return DONE;
                }
            }
        }
        double *S = r->S;
        r->envelope = combine(r);
        r->S = r->S_next;
        r->S_next = S;
        if (!(r->envelope <= r->limit)) {
            r->step = k + 1;
            return ENVELOPE;
        }
    }
    return DONE;
}

/* trajectory.csv's rows, every number as Python's "%.17g" % value.
 *
 * The digits come as in cohsync.simulate._decimal_digits, from the tables
 * of simulate._g17_powers, which Python passes in: for 10^E <= |v| <
 * 10^(E + 1) on the tables, |v| 10^(16 - E) = p + t, p the rounded product
 * of |v| and the double-double power's head and t its error, exact by
 * Dekker's product, plus |v| times the power's tail; the 17 digits are
 * D = p + rint(t).  A value whose D that test cannot certify, and inf,
 * nan, subnormals and values off the tables, is left to Python: its
 * field is written empty, and its byte offset and value are listed in
 * slow_at and slow_value.  No value goes to printf, whose text would
 * follow LC_NUMERIC and write a negative NaN as -nan.
 */

/* Mirrored field by field by cohsync._native._Csv. */
struct csv {
    int64_t agents;              /* rows of a sample */
    int64_t cols;                /* numbers of a row */
    int64_t size;                /* rows of the tables: E from e_lo - 1 up */
    int64_t e_lo;                /* the least E of a certified value */
    int64_t slow;                /* values the last call left to Python */
    const int64_t *col;          /* (cols,) addresses of each column's first value */
    const int64_t *sample_step;  /* (cols,) elements from one sample to the next */
    const int64_t *agent_step;   /* (cols,) elements from one agent to the next */
    const char *text;            /* each sample's "t," and each agent's "i," */
    const int64_t *time_at;      /* (samples + 1,) offsets in text */
    const int64_t *agent_at;     /* (agents + 1,) offsets in text */
    const double *head, *head_hi, *head_lo, *tail, *pow10;
    char *out;
    int64_t *slow_at;            /* byte offsets in out */
    double *slow_value;
};

/* x rounded to an integer, half to even, for |x| < 2^51: the addition
 * and the subtraction of 2^52, with x's sign, round to nearest. */
static double rint_small(double x)
{
    const double big = copysign(4503599627370496.0, x);
    return (x + big) - big;
}

/* The 17 digits D of |v| 10^(16 - E), 10^16 <= D < 10^17, with E's row
 * of the tables in *row; 0 for a zero, and -1 when v is not certified. */
static int64_t digits(const struct csv *c, double v, int64_t *row)
{
    const double ax = fabs(v);
    if (ax == 0.0)
        return 0;
    if (!(ax >= c->pow10[1] && ax < c->pow10[c->size - 1]))
        return -1;
    /* E from the binary exponent e2, floor(e2 log10(2)) with log10(2)
     * as 1292913986 / 2^32, which is E or E - 1, and then corrected by one
     * against 10^E and 10^(E + 1) as _decimal_digits corrects its own. */
    uint64_t bits;
    memcpy(&bits, &ax, sizeof bits);
    const int64_t e2 = (int64_t)(bits >> 52) - 1023;
    int64_t k = ((e2 * 1292913986) >> 32) - (c->e_lo - 1);
    k -= ax < c->pow10[k];
    k += ax >= c->pow10[k + 1];
    *row = k;
    const double p = ax * c->head[k];
    const double cx = ax * 134217729.0; /* Veltkamp's split, 2^27 + 1 */
    const double x_hi = cx - (cx - ax), x_lo = ax - x_hi;
    const double h_hi = c->head_hi[k], h_lo = c->head_lo[k];
    const double t = ((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo + ax * c->tail[k];
    const double r = rint_small(t);
    const int64_t D = (int64_t)p + (int64_t)r;
    /* From 10^16 - 0.01 up, D = 10^16 is also the correct rounding of the
     * 17 digits at E - 1. */
    if (D < 100000000000000000 && (D > 10000000000000000 || (p - 1e16) + t >= -0.01)
        && fabs(t - r) < 0.5 - 1e-9)
        return D;
    return -1;
}

/* Writes "%.17g" % v at o, for v's digits D and row from digits(), and
 * gives the end of its text. */
static char *text(const struct csv *c, double v, int64_t D, int64_t row, char *o)
{
    *o = '-';
    o += signbit(v) != 0;
    if (D == 0) {
        *o = '0';
        return o + 1;
    }
    /* The digits two at a time, then the text of %g.  The copies are of
     * fixed size: digit has room for what they read past the digits, and
     * out for what they write past the text, which the next text
     * overwrites. */
    static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
                                "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
                                "8081828384858687888990919293949596979899";
    char digit[34];
    uint32_t hi = (uint32_t)(D / 100000000), lo = (uint32_t)(D % 100000000);
    for (int i = 15; i >= 9; i -= 2, lo /= 100)
        memcpy(digit + i, pairs + 2 * (lo % 100), 2);
    for (int i = 7; i >= 1; i -= 2, hi /= 100)
        memcpy(digit + i, pairs + 2 * (hi % 100), 2);
    digit[0] = (char)('0' + hi);
    int last = 16; /* the last nonzero digit; the first is never zero */
    while (digit[last] == '0')
        last--;
    const int64_t E = row + c->e_lo - 1;
    if (E < -4 || E >= 17) {
        o[0] = digit[0];
        o[1] = '.';
        memcpy(o + 2, digit + 1, 16);
        o += last ? last + 2 : 1;
        *o++ = 'e';
        *o++ = E < 0 ? '-' : '+';
        int64_t a = E < 0 ? -E : E;
        if (a >= 100) {
            *o++ = (char)('0' + a / 100);
            a %= 100;
        }
        memcpy(o, pairs + 2 * a, 2);
        return o + 2;
    }
    if (E < 0) { /* "0." and -E - 1 zeros */
        memcpy(o, "0.000", 5);
        memcpy(o + 1 - E, digit, 17);
        return o + 2 - E + last;
    }
    memcpy(o, digit, 17);
    o[E + 1] = '.';
    memcpy(o + E + 2, digit + E + 1, 16);
    return o + (last > E ? last + 2 : E + 1);
}

/* Writes rows start..stop of the file (row r is agent r % agents of
 * sample r / agents) at c->out and gives the bytes written; c->slow
 * counts the values left to Python. */
int64_t cohsync_csv(struct csv *table, int64_t start, int64_t stop)
{
    const struct csv copy = *table, *c = &copy; /* no text written aliases it */
    char *o = c->out;
    int64_t slow = 0, D[c->cols], rows[c->cols];
    double value[c->cols];
    for (int64_t row = start; row < stop; row++) {
        const int64_t s = row / c->agents, a = row % c->agents;
        memcpy(o, c->text + c->time_at[s], c->time_at[s + 1] - c->time_at[s]);
        o += c->time_at[s + 1] - c->time_at[s];
        memcpy(o, c->text + c->agent_at[a], c->agent_at[a + 1] - c->agent_at[a]);
        o += c->agent_at[a + 1] - c->agent_at[a];
        /* Every number's digits first, and then its text: the text's
         * length holds up the next text, but no number's digits. */
        for (int64_t j = 0; j < c->cols; j++) {
            value[j] = ((const double *)c->col[j])[s * c->sample_step[j] + a * c->agent_step[j]];
            D[j] = digits(c, value[j], &rows[j]);
        }
        for (int64_t j = 0; j < c->cols; j++) {
            if (D[j] < 0) {
                c->slow_at[slow] = o - c->out;
                c->slow_value[slow++] = value[j];
            } else {
                o = text(c, value[j], D[j], rows[j], o);
            }
            *o++ = j + 1 < c->cols ? ',' : '\n';
        }
    }
    table->slow = slow;
    return o - c->out;
}
