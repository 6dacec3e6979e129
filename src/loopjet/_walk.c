/* The compiled kernel of loopjet.series; loopjet.kernel documents each
 * function.  Degree bounds are int64 with the sentinels NEG and POS, a
 * slab's four in one (4, T) buffer of rows tlo, slo, shi, thi.  A spectrum
 * is compact: one row of nfft complex per live (jet row, entry) and an
 * int64 index from the entries to their rows, -1 for a dead one.  walk
 * and window return bit 0 if an overflow and bit 1 if an invalid operation
 * was raised. */
#include <fenv.h>
#include <math.h>
#include <string.h>

#define NEG (-(1L << 40))
#define POS (1L << 40)
#define CHUNK 64 /* spectrum positions summed in one temporary */

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", \
                                            "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

static inline long max(long x, long y) { return x > y ? x : y; }
static inline long min(long x, long y) { return x < y ? x : y; }

static inline long flags(void)
{
    return (fetestexcept(FE_OVERFLOW) ? 1 : 0)
        | (fetestexcept(FE_INVALID) ? 2 : 0);
}

void cap(long T, long *bounds, long hi)
{
    const long *shi = bounds + 2 * T;
    long *thi = bounds + 3 * T;
    for (long c = 0; c < T; c++)
        thi[c] = shi[c] > hi ? min(thi[c], hi) : thi[c] >= hi ? POS : thi[c];
}

long pairs(long count, const long *ta, const long *tb, const long *tc,
           const long *totals, long *live, long room, long *span, long T,
           long lo, long hi, long top, const unsigned char *want,
           const long *A, const long *B, long *out, long final)
{
    long k = 0, *tlo = out, *slo = out + T, *shi = out + 2 * T,
         *thi = out + 3 * T;
    span[0] = T;
    span[1] = -1;
    for (long c = 0; c < T; c++) {
        tlo[c] = shi[c] = NEG;
        slo[c] = thi[c] = POS;
    }
    for (long p = 0; p < count; p++) {
        long a = ta[p], b = tb[p], c = tc[p];
        if (A[2 * T + a] == NEG || B[2 * T + b] == NEG || totals[c] > top
            || (want && !want[c]))
            continue;
        live[k] = a;
        live[room + k] = b;
        live[2 * room + k++] = c;
        span[0] = min(span[0], c);
        span[1] = max(span[1], c);
        long atlo = A[a], aslo = A[T + a], ashi = A[2 * T + a],
             athi = A[3 * T + a], btlo = B[b], bslo = B[T + b],
             bshi = B[2 * T + b], bthi = B[3 * T + b];
        tlo[c] = max(tlo[c], max(atlo == NEG ? NEG : atlo + bshi,
                                 btlo == NEG ? NEG : btlo + ashi));
        slo[c] = min(slo[c], aslo + bslo);
        shi[c] = max(shi[c], min(ashi + bshi, POS));
        thi[c] = min(thi[c], min(athi == POS ? POS : athi + bslo,
                                 bthi == POS ? POS : bthi + aslo));
    }
    for (long c = 0; final && c < T; c++)
        tlo[c] = tlo[c] <= lo ? (slo[c] >= lo ? NEG : lo) : tlo[c];
    if (final)
        cap(T, out, hi);
    return k;
}

/* index[r nn + e] = the next compact row, or -1 where the W coefficients
 * of entry e of jet row r of data (R, W, nn) are all +0.0 bits; with
 * dense, every entry gets a row.  Returns the rows. */
long scan(long R, long W, long nn, const unsigned long long *data,
          long *index, long dense)
{
    long m = 0;
    for (long r = 0; r < R; r++) {
        long *ix = index + r * nn;
        for (long e = 0; e < nn; e++)
            ix[e] = dense;
        for (long w = 0; w < W; w++) {
            const unsigned long long *x = data + 2 * (r * W + w) * nn;
            for (long e = 0; e < nn; e++)
                ix[e] |= (x[2 * e] | x[2 * e + 1]) != 0;
        }
        for (long e = 0; e < nn; e++)
            ix[e] = ix[e] ? m++ : -1;
    }
    return m;
}

/* rows[index[r nn + e]] = entry e of jet row r of data (R, W, nn),
 * zero-padded to nfft, for each entry with a row. */
void gather(long R, long W, long nn, long nfft, const double *data,
            const long *index, double *rows)
{
    for (long x = 0; x < R * nn; x++) {
        if (index[x] < 0)
            continue;
        const double *src = data + 2 * ((x / nn) * W * nn + x % nn);
        double *y = rows + 2 * index[x] * nfft;
        for (long w = 0; w < W; w++) {
            y[2 * w] = src[2 * w * nn];
            y[2 * w + 1] = src[2 * w * nn + 1];
        }
        for (long f = 2 * W; f < 2 * nfft; f++)
            y[f] = 0.0;
    }
}

/* The first live term of entry (i, j) of the product of the entries x and
 * y of two jet rows: the least k with x[i n + k] and y[k n + j] both live,
 * or n if there is none. */
static inline long live(long n, long i, long j, const long *x, const long *y)
{
    long k = 0;
    while (k < n && (x[i * n + k] < 0 || y[k * n + j] < 0))
        k++;
    return k;
}

static inline void mul(long m, const double *x, const double *y, double *t,
                       int first)
{
    for (long f = 0; f < 2 * m; f += 2) {
        double re = fma(x[f], y[f], -(x[f + 1] * y[f + 1]));
        double im = fma(x[f], y[f + 1], x[f + 1] * y[f]);
        t[f] = first ? re : t[f] + re;
        t[f + 1] = first ? im : t[f + 1] + im;
    }
}

/* Spectra in the compact layout: rows (m, nfft) and an index (R nn) from
 * the entries of the jet rows to their rows, -1 for a dead entry; ra, rb
 * and rc count the entries of the indexes.  Each output entry with a row
 * sums its live k terms in ascending k into a temporary, which is then
 * added to C; a term with a dead factor is skipped.  With room >= 0, the
 * output entries of the rows c0 .. that some pair feeds a live term are
 * first numbered in order into ic, -1 for every other, and their rows of C
 * zeroed; if they need more than room rows, nothing is walked and -2 -
 * rows is returned.  Returns the flags plus 4 times the rows numbered, or
 * -1 if a pair is past the operands' rows. */
CLONES long walk(long count, const long *pa, const long *pb, const long *pc,
                 long c0, long n, long nfft, const double *A, const long *ia,
                 long ra, const double *B, const long *ib, long rb, double *C,
                 long *ic, long rc, long room)
{
    long entry = 2 * nfft, nn = n * n, rows = 0;
    double t[2 * CHUNK];
    ra /= nn, rb /= nn, rc /= nn; /* entries to jet rows */
    for (long p = 0; p < count; p++)
        if (pa[p] < 0 || pa[p] >= ra || pb[p] < 0 || pb[p] >= rb
            || pc[p] < c0 || pc[p] - c0 >= rc)
            return -1;
    if (room >= 0) {
        for (long x = 0; x < rc * nn; x++)
            ic[x] = 0;
        for (long p = 0; p < count; p++) {
            const long *x = ia + pa[p] * nn, *y = ib + pb[p] * nn;
            long *z = ic + (pc[p] - c0) * nn;
            for (long ij = 0; ij < nn; ij++)
                z[ij] = z[ij] || live(n, ij / n, ij % n, x, y) < n;
        }
        for (long x = 0; x < rc * nn; x++)
            ic[x] = ic[x] ? rows++ : -1;
        if (rows > room)
            return -2 - rows;
        memset(C, 0, rows * entry * sizeof(double));
    }
    feclearexcept(FE_OVERFLOW | FE_INVALID);
    for (long p = 0; p < count; p++) {
        const long *x = ia + pa[p] * nn, *y = ib + pb[p] * nn,
                   *z = ic + (pc[p] - c0) * nn;
        for (long ij = 0; ij < nn; ij++) {
            long i = ij / n, j = ij % n, k0 = live(n, i, j, x, y);
            if (z[ij] < 0 || k0 == n)
                continue;
            for (long f0 = 0; f0 < entry; f0 += 2 * CHUNK) {
                long m = (entry - f0) / 2 < CHUNK ? (entry - f0) / 2 : CHUNK;
                mul(m, A + x[i * n + k0] * entry + f0,
                    B + y[k0 * n + j] * entry + f0, t, 1);
                for (long k = k0 + 1; k < n; k++)
                    if (x[i * n + k] >= 0 && y[k * n + j] >= 0)
                        mul(m, A + x[i * n + k] * entry + f0,
                            B + y[k * n + j] * entry + f0, t, 0);
                double *out = C + z[ij] * entry + f0;
                for (long f = 0; f < 2 * m; f++)
                    out[f] += t[f];
            }
        }
    }
    return flags() + 4 * rows;
}

/* dst[r, w, e] = src[r sr + w sw + k se] (m + 0i), in complex strides,
 * where k is index[r nn + e] (-1 if one is past the count of rows), or e
 * without an index, and +0.0 where k is -1; src may be dst. */
long window(long rows, long W, long nn, const double *src, long sr, long sw,
            long se, const long *index, long count, double *dst,
            const long *slo, const long *shi, long lo)
{
    for (long x = 0; index && x < rows * nn; x++)
        if (index[x] >= count)
            return -1;
    feclearexcept(FE_OVERFLOW | FE_INVALID);
    for (long r = 0; r < rows; r++)
        for (long w = 0; w < W; w++) {
            double m = slo[r] <= lo + w && lo + w <= shi[r] ? 1.0 : 0.0;
            const double *x = src + 2 * (r * sr + w * sw);
            double *y = dst + 2 * (r * W + w) * nn;
            for (long e = 0; e < nn; e++) {
                long k = index ? index[r * nn + e] : e;
                if (k < 0) {
                    y[2 * e] = y[2 * e + 1] = 0.0;
                    continue;
                }
                double xr = x[2 * k * se], xi = x[2 * k * se + 1];
                y[2 * e] = xr * m - xi * 0.0;
                y[2 * e + 1] = xr * 0.0 + xi * m;
            }
        }
    return flags();
}
