/* The pair walk of loopjet.series: C[c] += A[a] B[b] for each listed pair
 * (a, b, c) in list order, where A, B and C are row-major spectra
 * (rows, n, n, nfft) of complex doubles and A[a] B[b] is the n x n product
 * at every spectrum position.  Each entry sums its k terms in ascending k
 * into a temporary, which is then added to C[c]; x y is multiplied as
 * numpy multiplies complex doubles, re = fma(xr, yr, -(xi yi)) and
 * im = fma(xr, yi, xi yr).  Returns bit 0 if an overflow and bit 1 if an
 * invalid operation was raised. */
#include <fenv.h>
#include <math.h>

#define CHUNK 64 /* spectrum positions summed in one temporary */

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", \
                                            "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

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

CLONES int walk(long pairs, const long *pa, const long *pb, const long *pc,
                long n, long nfft, const double *A, const double *B,
                double *C)
{
    long entry = 2 * nfft, row = n * n * entry;
    double t[2 * CHUNK];
    feclearexcept(FE_OVERFLOW | FE_INVALID);
    for (long p = 0; p < pairs; p++) {
        const double *a = A + pa[p] * row, *b = B + pb[p] * row;
        double *c = C + pc[p] * row;
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
    return (fetestexcept(FE_OVERFLOW) ? 1 : 0)
        | (fetestexcept(FE_INVALID) ? 2 : 0);
}
