/* Runs martinez_batch over batches read from a file, for the sanitizer
 * test (tests/test_kernel_asan.py), and writes each batch's return code
 * and result buffers to a second file.
 *
 *   kernel_asan_driver IN OUT
 *
 * IN:  int64 n_batches, then per batch: int64 n_pairs, the subject and
 *      clipping sides (each: xy f64, ring/poly/multipolygon offsets
 *      i32, every array preceded by its int64 length), int32 ops[n].
 * OUT: per batch: int64 rc; when rc == 0, int64 n_vertices, n_rings,
 *      n_polys, n_pairs, then xy, ring sizes, rings per polygon,
 *      polygons per pair and the int8 gate class of each pair.
 * All little-endian, as written by numpy on x86-64 and arm64.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int martinez_batch(
    const double *s_xy, const int32_t *s_ring_off, const int32_t *s_poly_off,
    const int32_t *s_mp_off,
    const double *c_xy, const int32_t *c_ring_off, const int32_t *c_poly_off,
    const int32_t *c_mp_off,
    int64_t n_pairs, const int32_t *ops,
    double **out_xy, int64_t **out_ring_sizes, int64_t **out_poly_ring_counts,
    int64_t **out_pair_poly_counts,
    int64_t *out_n_vertices, int64_t *out_n_rings, int64_t *out_n_polys,
    int8_t *classes);
void martinez_free_batch(double *xy, int64_t *ring_sizes,
                         int64_t *poly_ring_counts, int64_t *pair_poly_counts);

static FILE *in;

static void *read_array(size_t elem) {
    int64_t n;
    if (fread(&n, 8, 1, in) != 1) exit(2);
    void *p = malloc(n ? n * elem : 1);
    if ((int64_t)fread(p, elem, n, in) != n) exit(2);
    return p;
}

static void write_all(FILE *out, const void *p, size_t elem, int64_t n) {
    if (n && (int64_t)fwrite(p, elem, n, out) != n) exit(2);
}

int main(int argc, char **argv) {
    if (argc != 3) return 2;
    in = fopen(argv[1], "rb");
    FILE *out = fopen(argv[2], "wb");
    if (in == NULL || out == NULL) return 2;
    int64_t n_batches;
    if (fread(&n_batches, 8, 1, in) != 1) return 2;
    for (int64_t b = 0; b < n_batches; b++) {
        int64_t n;
        if (fread(&n, 8, 1, in) != 1) return 2;
        void *side[8];
        for (int k = 0; k < 8; k++) side[k] = read_array(k % 4 == 0 ? 8 : 4);
        int32_t *ops = (int32_t *)malloc(n ? n * 4 : 1);
        if ((int64_t)fread(ops, 4, n, in) != n) return 2;
        int8_t *classes = (int8_t *)malloc(n ? n : 1);

        double *xy;
        int64_t *ring_sizes, *poly_ring_counts, *pair_poly_counts;
        int64_t nv, nr, np;
        int64_t rc = martinez_batch(
            side[0], side[1], side[2], side[3], side[4], side[5], side[6], side[7],
            n, ops, &xy, &ring_sizes, &poly_ring_counts, &pair_poly_counts,
            &nv, &nr, &np, classes);
        write_all(out, &rc, 8, 1);
        if (rc == 0) {
            int64_t counts[4] = {nv, nr, np, n};
            write_all(out, counts, 8, 4);
            write_all(out, xy, 16, nv);
            write_all(out, ring_sizes, 8, nr);
            write_all(out, poly_ring_counts, 8, np);
            write_all(out, pair_poly_counts, 8, n);
            write_all(out, classes, 1, n);
            martinez_free_batch(xy, ring_sizes, poly_ring_counts, pair_poly_counts);
        }
        for (int k = 0; k < 8; k++) free(side[k]);
        free(ops);
        free(classes);
    }
    fclose(in);
    return fclose(out) == 0 ? 0 : 2;
}
