/* The compiled kernel of loopjet.series; loopjet.kernel documents each
 * function.  Degree bounds are int64 with the sentinels NEG and POS, a
 * slab's four in one (4, T) buffer of rows tlo, slo, shi, thi.  walk and
 * window return bit 0 if an overflow and bit 1 if an invalid operation was
 * raised. */
#include <fenv.h>
#include <math.h>

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

/* Each entry sums its k terms in ascending k into a temporary, which is
 * then added to C. */
CLONES long walk(long count, const long *pa, const long *pb, const long *pc,
                 long c0, long n, long nfft, const double *A, long ra,
                 const double *B, long rb, double *C, long rc)
{
    long entry = 2 * nfft, row = n * n * entry;
    double t[2 * CHUNK];
    for (long p = 0; p < count; p++)
        if (pa[p] < 0 || pa[p] >= ra || pb[p] < 0 || pb[p] >= rb
            || pc[p] < c0 || pc[p] - c0 >= rc)
            return -1;
    feclearexcept(FE_OVERFLOW | FE_INVALID);
    for (long p = 0; p < count; p++) {
        const double *a = A + pa[p] * row, *b = B + pb[p] * row;
        double *c = C + (pc[p] - c0) * row;
        for (long ij = 0; ij < n * n; ij++) {
            long i = ij / n, j = ij % n;
            for (long f0 = 0; f0 < entry; f0 += 2 * CHUNK) {
                long m = (entry - f0) / 2 < CHUNK ? (entry - f0) / 2 : CHUNK;
                for (long k = 0; k < n; k++)
                    mul(m, a + (i * n + k) * entry + f0,
                        b + (k * n + j) * entry + f0, t, k == 0);
                double *out = c + ij * entry + f0;
                for (long f = 0; f < 2 * m; f++)
                    out[f] += t[f];
            }
        }
    }
    return flags();
}

/* dst[r, w, e] = src[r sr + w sw + e se] (m + 0i), in complex strides;
 * src may be dst. */
long window(long rows, long W, long nn, const double *src, long sr, long sw,
            long se, double *dst, const long *slo, const long *shi, long lo)
{
    feclearexcept(FE_OVERFLOW | FE_INVALID);
    for (long r = 0; r < rows; r++)
        for (long w = 0; w < W; w++) {
            double m = slo[r] <= lo + w && lo + w <= shi[r] ? 1.0 : 0.0;
            const double *x = src + 2 * (r * sr + w * sw);
            double *y = dst + 2 * (r * W + w) * nn;
            for (long e = 0; e < nn; e++) {
                double xr = x[2 * e * se], xi = x[2 * e * se + 1];
                y[2 * e] = xr * m - xi * 0.0;
                y[2 * e + 1] = xr * 0.0 + xi * m;
            }
        }
    return flags();
}
