/* Even-odd coverage counts of a multipolygon column on pixel grids:
 * the native pass of stages/tiles.py::rasterize_counts.
 *
 * Every pixel decision is the numpy pass's, operation for operation:
 * the same ring edges (a ring whose first and last vertices are equal
 * drops the repeated one), the same fixed-step bisection for the pixel
 * rows an edge crosses and for the columns left of its crossing, and
 * the same crossing abscissa
 *     xint = (x2 - x1) * (py - y1) / (y2 - y1) + x1
 * in that order.  Compiled with the library's flags (-ffp-contract=off,
 * -fno-unsafe-math-optimizations), so the float expression rounds as
 * numpy's does, NaN and infinities included.
 *
 * One pass over the Arrow offset buffers; the parity scratch is
 * allocated once per call.  Grid indices are not checked here:
 * rasterize_counts checks them before calling.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* How many entries of the row tab[0..n) are < v (0 when v is NaN): the
 * numpy pass's bisection, step for step, bit_length(n) steps. */
static int64_t count_below(const double *tab, int64_t n, int steps, double v) {
    int64_t lo = 0, hi = n;
    for (int s = 0; s < steps; s++) {
        int64_t mid = (lo + hi) >> 1;
        /* mid == n only once lo == hi == n (converged): keep it there */
        if (mid < n && tab[mid < n - 1 ? mid : n - 1] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int bit_length(int64_t n) {
    int k = 0;
    for (; n > 0; n >>= 1) k++;
    return k;
}

/* out[grid[i]] += the even-odd mask of row i at the pixel centres
 * xs[grid[i]] x ys[grid[i]], for every row i in [0, n_rows).
 * xs is (G, nx), ys (G, ny), out (G, ny, nx), all C-contiguous; the
 * caller zeroes out.  Returns 0, or 1 when the scratch cannot be
 * allocated. */
int rasterize_counts(
    const double *xy, const int32_t *ring_off, const int32_t *poly_off,
    const int32_t *mp_off, int64_t n_rows, const int64_t *grid,
    const double *xs, const double *ys, int64_t nx, int64_t ny,
    uint32_t *out) {
    int x_steps = bit_length(nx), y_steps = bit_length(ny);
    /* per pixel row of one clip row: parity toggles at [0] and [c],
     * whose running XOR is the row's mask */
    uint8_t *parity = (uint8_t *)calloc((size_t)(ny * (nx + 1)) + 1, 1);
    if (parity == NULL) return 1;
    for (int64_t i = 0; i < n_rows; i++) {
        const double *gx = xs + grid[i] * nx, *gy = ys + grid[i] * ny;
        int64_t row_lo = ny, row_hi = 0; /* pixel rows touched */
        for (int64_t r = poly_off[mp_off[i]]; r < poly_off[mp_off[i + 1]]; r++) {
            int64_t start = ring_off[r], nv = ring_off[r + 1] - start;
            const double *v = xy + 2 * start;
            int closed = nv > 0 && v[0] == v[2 * (nv - 1)] && v[1] == v[2 * (nv - 1) + 1];
            int64_t m = nv - closed;
            for (int64_t k = 0; k < m; k++) {
                /* later vertex v[k], earlier vertex v[k - 1 mod m] */
                int64_t e = k == 0 ? m - 1 : k - 1;
                double x1 = v[2 * k], y1 = v[2 * k + 1];
                double x2 = v[2 * e], y2 = v[2 * e + 1];
                int64_t a = count_below(gy, ny, y_steps, y1);
                int64_t b = count_below(gy, ny, y_steps, y2);
                int64_t lo = a < b ? a : b, hi = a < b ? b : a;
                if (lo < row_lo) row_lo = lo;
                if (hi > row_hi) row_hi = hi;
                for (int64_t p = lo; p < hi; p++) {
                    double py = gy[p];
                    double xint = (x2 - x1) * (py - y1) / (y2 - y1) + x1;
                    uint8_t *t = parity + p * (nx + 1);
                    t[0] ^= 1;
                    t[count_below(gx, nx, x_steps, xint)] ^= 1;
                }
            }
        }
        uint32_t *o = out + grid[i] * ny * nx;
        for (int64_t p = row_lo; p < row_hi; p++) {
            uint8_t *t = parity + p * (nx + 1), in = 0;
            uint32_t *op = o + p * nx;
            for (int64_t c = 0; c < nx; c++) {
                in ^= t[c];
                op[c] += in;
            }
            memset(t, 0, (size_t)(nx + 1));
        }
    }
    free(parity);
    return 0;
}
