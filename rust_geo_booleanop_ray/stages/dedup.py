"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (ray_guide aggregation/dedup patterns):
  exact     — content-hash column (map_batches) → per-batch partial
              (hash → min id, count) → groupby(hash) merge.  The
              shuffle moves one row per distinct hash per batch, not
              one per document.
  minhash   — shingle → 64 minhash perms → 8×8 bands → explode
              (band_id, band_hash, doc_id) → groupby(bucket) →
              candidate pairs → signature-estimated Jaccard ≥ τ.
  simhash   — 64-bit simhash → 4×16-bit band blocking → pairs with
              hamming ≤ max_hamming.
  embedding — unit-normalize → sign-LSH bucket (seeded hyperplanes) →
              within-bucket cosine ≥ τ.
  components— distributed min-label propagation with pointer jumping
              (edges ⋈ labels shuffle join + groupby(node) min per
              round, O(log diameter) rounds); labels stay a Dataset —
              the driver only reads a per-round change counter.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# Per-byte popcount lookup table for the vectorized hamming distance.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# ---------------------------------------------------------------- exact


def content_hash_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """128-bit stable content fingerprint (blake2b-16) per row, as two
    int64 columns (content_hash, content_hash_hi).

    128 bits is the scale-correct width: a 64-bit digest has a ~40%
    chance of at least one birthday collision at 10^9 documents (and
    certainty at 10^10), which would silently merge two DIFFERENT
    documents in exact dedup; at 128 bits the collision probability at
    10^12 rows is ~10^-14.  Grouping everywhere is on the PAIR; the
    shuffle bucket derives from the low word alone (equal pairs share
    it)."""
    texts = batch[text_col].to_pylist()
    lo = np.empty(len(texts), dtype=np.int64)
    hi = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        d = hashlib.blake2b(t.encode("utf-8"), digest_size=16).digest()
        lo[i] = np.int64(int.from_bytes(d[:8], "big") - (1 << 63))
        hi[i] = np.int64(int.from_bytes(d[8:], "big") - (1 << 63))
    return pa.table(
        {
            "doc_id": batch[id_col],
            "content_hash": pa.array(lo, pa.int64()),
            "content_hash_hi": pa.array(hi, pa.int64()),
        }
    )


def exact_dedup_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: (128-bit content hash → min doc_id, count).

    Arrow-native (``pa.TableGroupBy``) — no pandas round-trip in the
    hot partial-aggregation stage."""
    agg = pa.TableGroupBy(
        pa.table(
            {
                "content_hash": batch["content_hash"],
                "content_hash_hi": batch["content_hash_hi"],
                "doc_id": batch["doc_id"],
            }
        ),
        ["content_hash", "content_hash_hi"],
    ).aggregate([("doc_id", "min"), ("doc_id", "count")])
    return pa.table(
        {
            "content_hash": agg["content_hash"].cast(pa.int64()),
            "content_hash_hi": agg["content_hash_hi"].cast(pa.int64()),
            "doc_id": agg["doc_id_min"].cast(pa.int64()),
            "n": agg["doc_id_count"].cast(pa.int64()),
        }
    )


def exact_dedup_merge(group: pa.Table) -> pa.Table:
    """groupby(content hash pair) merge of partials (one group per call
    — use the bucketed variant below for rows-cardinality key spaces)."""
    return pa.table(
        {
            "content_hash": group["content_hash"].slice(0, 1),
            "content_hash_hi": group["content_hash_hi"].slice(0, 1),
            "doc_id": pa.array([min(group["doc_id"].to_pylist())], pa.int64()),
            "n": pa.array([sum(group["n"].to_pylist())], pa.int64()),
        }
    )


DEDUP_BUCKETS = 64


def exact_dedup_bucket_col(t: pa.Table) -> pa.Table:
    """Append the shuffle bucket (low hash word % DEDUP_BUCKETS).
    Content-hash cardinality is ~rows, so grouping by the hash itself
    would make one Python group call per distinct document — the
    per-key map_groups anti-pattern.  Bucketing keeps the exchange
    identical (all rows of a hash pair share a bucket — equal pairs
    have equal low words) with 64 group calls total."""
    h = t["content_hash"].to_numpy().view(np.uint64)
    return t.append_column(
        "bucket", pa.array((h % np.uint64(DEDUP_BUCKETS)).astype(np.int64))
    )


def exact_dedup_merge_bucket(group: pa.Table) -> pa.Table:
    """Vectorized per-BUCKET merge: lexsort + reduceat — C-speed min
    doc and count per 128-bit content hash, global because a hash's
    partials all share the bucket."""
    h = group["content_hash"].to_numpy()
    h2 = group["content_hash_hi"].to_numpy()
    d = group["doc_id"].to_numpy()
    n = group["n"].to_numpy()
    order = np.lexsort((d, h2, h))
    h, h2, d, n = h[order], h2[order], d[order], n[order]
    starts = np.concatenate(
        ([0], np.flatnonzero((h[1:] != h[:-1]) | (h2[1:] != h2[:-1])) + 1)
    )
    return pa.table(
        {
            "content_hash": pa.array(h[starts], pa.int64()),
            "content_hash_hi": pa.array(h2[starts], pa.int64()),
            "doc_id": pa.array(d[starts], pa.int64()),
            "n": pa.array(np.add.reduceat(n, starts).astype(np.int64)),
        }
    )


# ---------------------------------------------------------------- minhash

_MERSENNE = np.uint64((1 << 61) - 1)


def minhash_coeffs(n_perm: int, seed: int):
    """Deterministic (a, b) permutation coefficients from splitmix64 —
    a pure integer-hash function the SQL oracle inlines as literals."""
    from .footprint import _splitmix64

    ks = np.arange(n_perm, dtype=np.uint64)
    base = np.uint64(seed) * np.uint64(1_000_003)
    a = _splitmix64(base + np.uint64(2) * ks) % (_MERSENNE - np.uint64(1)) + np.uint64(1)
    b = _splitmix64(base + np.uint64(2) * ks + np.uint64(1)) % _MERSENNE
    return a, b


def _list_matrix(arr, n_rows: int) -> np.ndarray:
    """(Fixed-size or plain) list column of equal-length lists → (n, d)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False)
    return flat.reshape(n_rows, -1)


class MinHasher:
    """Actor-pool stage: char-shingle MinHash signatures.

    Everything is a deterministic integer-hash function — shingles are
    a polynomial rolling hash over CODE POINTS and the permutation
    coefficients derive from splitmix64(seed, i) — so the DuckDB
    oracle can reproduce signatures exactly (Q_MINHASH_SQL inlines the
    coefficients and mirrors the wrap-mod-2^64-then-mod-p arithmetic).
    Emits (doc_id, sig: fixed_size_list<int64, n_perm>).
    """

    def __init__(self, n_perm: int = 64, shingle_k: int = 5, seed: int = 7):
        self.a, self.b = minhash_coeffs(n_perm, seed)
        self.n_perm = n_perm
        self.k = shingle_k

    _SHINGLE_BASE = np.uint64(1099511628211)  # FNV-64 prime

    def shingle_hashes(self, text: str) -> np.ndarray:
        """Distinct 64-bit hashes of the k-code-point shingles,
        vectorized: a polynomial rolling hash evaluated with k strided
        adds/muls over the code-point array (utf-32 view; no
        per-shingle Python), unique'd.  The (a·h+b) permutations on
        top make the base hash's mixing quality immaterial for the
        MinHash estimator."""
        data = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        k = self.k
        if len(data) <= k:
            # a one-element array, not a numpy scalar: array arithmetic
            # wraps mod 2^64 silently, scalar arithmetic warns on it
            h = np.zeros(1, dtype=np.uint64)
            for b in data:
                h = h * self._SHINGLE_BASE + b
            return h
        n = len(data) - k + 1
        h = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            h = h * self._SHINGLE_BASE + data[j : j + n]
        return np.unique(h)

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingle_hashes(text)
        # (a*h + b) in wrapping uint64, then mod p; min over shingles,
        # per permutation (the oracle mirrors this exact sequence)
        vals = (self.a[None, :] * sh[:, None] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Whole-batch signature kernel — bit-identical to the per-doc
        ``signature()`` (tests assert it), but one vectorized pass:
        code points decode zero-copy from the flat utf-8 buffer, the
        rolling hash runs ONCE over the concatenated array with
        doc-crossing windows masked out, per-doc shingle dedup is one
        lexsort, and the permutation mins stream perm-by-perm with
        reduceat over doc runs.  ~1.6× the per-doc path per core on
        short docs — this is the dedup headline's hot stage."""
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "sig": pa.FixedSizeListArray.from_arrays(
                        pa.array([], pa.int64()), self.n_perm
                    ),
                }
            )
        from ..functions.unicode import utf8_codepoints

        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        flat_bin = texts.cast(pa.binary())
        off_buf = np.frombuffer(flat_bin.buffers()[1], dtype=np.int32)
        byte_starts = off_buf[flat_bin.offset : flat_bin.offset + n + 1].astype(
            np.int64
        )
        buf = flat_bin.buffers()[2]
        data = (
            np.frombuffer(buf, dtype=np.uint8)
            if buf is not None
            else np.empty(0, dtype=np.uint8)
        )
        cps, prefix = utf8_codepoints(data)
        cpsu = cps.astype(np.uint64)
        cp_starts = prefix[byte_starts[:-1]]
        lens = prefix[byte_starts[1:]] - cp_starts

        k = self.k
        B = self._SHINGLE_BASE
        # long docs (len ≥ k): every in-doc window of the global
        # rolling hash; len == k degenerates to the same single-window
        # polynomial the short path computes
        N = len(cpsu)
        counts = np.maximum(lens - k + 1, 0)
        if N >= k:
            nwin = N - k + 1
            gh = np.zeros(nwin, dtype=np.uint64)
            for j in range(k):
                gh = gh * B + cpsu[j : j + nwin]
            total_long = int(counts.sum())
            csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
            widx = (
                np.arange(total_long, dtype=np.int64)
                - np.repeat(csum, counts)
                + np.repeat(cp_starts, counts)
            )
            wh = gh[widx]
            wdoc = np.repeat(np.arange(n, dtype=np.int64), counts)
        else:
            wh = np.empty(0, dtype=np.uint64)
            wdoc = np.empty(0, dtype=np.int64)
        # short docs (len < k): one polynomial hash over ALL code
        # points — same sequential op order as signature()'s loop
        short = np.flatnonzero(lens < k)
        if len(short):
            slens = lens[short]
            hs = np.zeros(len(short), dtype=np.uint64)
            for j in range(int(slens.max()) if len(slens) else 0):
                active = slens > j
                hs[active] = hs[active] * B + cpsu[cp_starts[short[active]] + j]
            wh = np.concatenate([wh, hs])
            wdoc = np.concatenate([wdoc, short])

        # per-doc distinct shingles (np.unique parity): lexsort then
        # drop adjacent (doc, hash) repeats
        order = np.lexsort((wh, wdoc))
        wh, wdoc = wh[order], wdoc[order]
        keep = np.empty(len(wh), dtype=bool)
        keep[0] = True
        keep[1:] = (wdoc[1:] != wdoc[:-1]) | (wh[1:] != wh[:-1])
        wh, wdoc = wh[keep], wdoc[keep]

        # permutation mins per doc run: ONE streaming pass per
        # permutation over the contiguous shingle array (cache-friendly
        # — a (shingles × n_perm) tensor thrashes L2 and ran 2× slower
        # than even the per-doc path), with the Mersenne mod as exact
        # shift-add (2^61 ≡ 1 mod p, one conditional subtract) instead
        # of a uint64 division.  Bit-identical to signature(): x is the
        # same wrapped a·h+b, and the folded value is the unique
        # representative of x mod p in [0, p).
        run_starts = np.concatenate(
            ([0], np.flatnonzero(wdoc[1:] != wdoc[:-1]) + 1)
        )
        # every doc contributes ≥1 shingle (short docs hash to [h]),
        # so run r corresponds exactly to doc r
        sigs = np.empty((n, self.n_perm), dtype=np.int64)
        for p in range(self.n_perm):
            x = self.a[p] * wh + self.b[p]  # wrapping uint64
            y = (x & _MERSENNE) + (x >> np.uint64(61))
            y[y >= _MERSENNE] -= _MERSENNE
            sigs[:, p] = np.minimum.reduceat(y, run_starts).view(np.int64)

        sig_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.ravel(), pa.int64()), self.n_perm
        )
        return pa.table({"doc_id": batch["doc_id"], "sig": sig_arr})


def lsh_band_explode(batch: pa.Table, bands: int = 8) -> pa.Table:
    """(doc_id, sig) → (band_id, band_hash, doc_id, sig) rows."""
    sig_arr = batch["sig"]
    if isinstance(sig_arr, pa.ChunkedArray):
        sig_arr = sig_arr.combine_chunks()
    n = len(sig_arr)
    sigs = _list_matrix(sig_arr, n)
    n_perm = sigs.shape[1]
    rows_per_band = n_perm // bands
    band_hashes = np.empty((n, bands), dtype=np.int64)
    for b in range(bands):
        seg = sigs[:, b * rows_per_band : (b + 1) * rows_per_band]
        # deterministic 64-bit mix of the band values
        acc = np.zeros(n, dtype=np.uint64)
        for c in range(rows_per_band):
            acc = acc * np.uint64(1099511628211) + seg[:, c].astype(np.uint64)
        band_hashes[:, b] = acc.astype(np.int64)
    band_id = np.tile(np.arange(bands, dtype=np.int64), n)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), bands)
    take = pa.array(doc_idx)
    return pa.table(
        {
            "band_id": pa.array(band_id, pa.int64()),
            "band_hash": pa.array(band_hashes.ravel(), pa.int64()),
            "doc_id": batch["doc_id"].take(take),
            "sig": sig_arr.take(take),
        }
    )


class LshCandidatePairs:
    """map_groups fn on groupby(band_id, band_hash): emit verified pairs.

    Jaccard is estimated from full signatures (fraction of equal
    minhash components — the standard unbiased estimator).  EXACT —
    hot buckets are evaluated in row chunks so the comparison tensor
    stays under ``max_matrix`` (rows × rows × n_perm) elements instead
    of being truncated (the old cap dropped real pairs).
    """

    def __init__(self, threshold: float = 0.6, max_matrix: int = 1 << 24):
        self.threshold = threshold
        self.max_matrix = max_matrix
        self.__name__ = type(self).__name__
        # singleton buckets dominate — cached empty result, cheap exit
        self._empty = pa.schema(
            [
                pa.field("doc_a", pa.int64()),
                pa.field("doc_b", pa.int64()),
                pa.field("est_jaccard", pa.float64()),
            ]
        ).empty_table()

    def __call__(self, group: pa.Table) -> pa.Table:
        empty = self._empty
        if group.num_rows < 2:
            return empty
        ids = group["doc_id"].to_numpy()
        uniq, first_pos = np.unique(ids, return_index=True)
        n = len(uniq)
        if n < 2:
            return empty
        sigs = _list_matrix(group["sig"], len(ids))[first_pos]
        n_perm = sigs.shape[1]
        chunk = max(1, self.max_matrix // max(1, n * n_perm))
        out_a, out_b, out_e = [], [], []
        for lo in range(0, n - 1, chunk):
            hi = min(lo + chunk, n)
            eq = (sigs[lo:hi, None, :] == sigs[None, :, :]).mean(axis=2)
            ii, jj = np.nonzero(eq >= self.threshold)
            keep = (ii + lo) < jj
            if keep.any():
                out_a.append(uniq[ii[keep] + lo])
                out_b.append(uniq[jj[keep]])
                out_e.append(eq[ii[keep], jj[keep]])
        if not out_a:
            return empty
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
                "est_jaccard": pa.array(np.concatenate(out_e)),
            }
        )


def ngram_shingles(text: str, k: int = 5) -> set:
    """Character k-gram set (short texts yield their truncated tail
    grams, matching SQL character slicing)."""
    return {text[i : i + k] for i in range(max(1, len(text) - k + 1))}


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact character n-gram Jaccard (verification function)."""
    a = ngram_shingles(text_a, k)
    b = ngram_shingles(text_b, k)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def ngram_jaccard_pct(text_a: str, text_b: str, k: int = 5) -> int:
    """Integer-percent Jaccard with half-UP rounding, computed as
    floor((100·|∩|)/|∪| + 0.5) — the exact float op sequence the SQL
    oracle uses, so percentages agree bit-for-bit even at .5
    boundaries."""
    a = ngram_shingles(text_a, k)
    b = ngram_shingles(text_b, k)
    union = len(a | b)
    if union == 0:
        return 100
    return int(np.floor(100.0 * len(a & b) / union + 0.5))


# ---------------------------------------------------------------- simhash


class SimHasher:
    """64-bit SimHash over word tokens (weights = token frequency).

    Fully vectorized across the batch: one split/flatten, token hashes
    via a polynomial hash over CODE POINTS (decoded vectorized from
    the flat utf-8 buffer — code points, not bytes, so the DuckDB
    oracle can mirror the hash with unicode()/list_reduce) plus a
    murmur-style finalizer; per-doc ±1 bit accumulation via reduceat."""

    _BASE = np.uint64(1099511628211)  # FNV-64 prime
    _FINAL_MUL = np.uint64(0xFF51AFD7ED558CCD)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        n = batch.num_rows
        toks = pc_.split_pattern(batch["text"], " ")
        n_tok = pc_.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc_.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        total = len(flat)
        if total == 0:
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "simhash": pa.array(np.zeros(n, dtype=np.int64), pa.int64()),
                }
            )
        # utf-8 byte segments of every token, zero-copy from the arrow
        # string buffers
        from ..functions.unicode import utf8_codepoints

        flat_bin = flat.cast(pa.binary())
        off_buf = np.frombuffer(flat_bin.buffers()[1], dtype=np.int32)
        byte_starts = off_buf[flat_bin.offset : flat_bin.offset + total + 1].astype(np.int64)
        data = np.frombuffer(flat_bin.buffers()[2], dtype=np.uint8)
        cps, prefix = utf8_codepoints(data)
        cps = cps.astype(np.uint64)
        cp_starts = prefix[byte_starts[:-1]]
        lens = prefix[byte_starts[1:]] - cp_starts

        h = np.zeros(total, dtype=np.uint64)
        for j in range(int(lens.max()) if total else 0):
            active = lens > j
            if not active.any():
                break
            h[active] = h[active] * self._BASE + cps[cp_starts[active] + j]
        # finalizer mix so short tokens still spread over 64 bits
        h ^= h >> np.uint64(33)
        h *= self._FINAL_MUL
        h ^= h >> np.uint64(33)

        bits = (
            (h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
        ).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(n_tok)))
        sum_bits = np.add.reduceat(bits, offsets[:-1], axis=0)
        sum_bits = np.where((offsets[1:] > offsets[:-1])[:, None], sum_bits, 0)
        acc = 2 * sum_bits - n_tok[:, None]  # Σ(±1) per bit per doc
        out_bits = (acc > 0).astype(np.uint64)
        vals = (out_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "simhash": pa.array(vals.view(np.int64), pa.int64()),
            }
        )


def band_explode(
    batch: pa.Table, key_col: str, sig_col: str, bands: int = 4
) -> pa.Table:
    """(key, 64-bit signature) → one row per (64/bands)-bit band.

    Pigeonhole blocking: two signatures within hamming < bands of each
    other agree exactly on ≥ 1 band, so a groupby on (band_id,
    band_val) surfaces every such pair without an all-pairs scan.
    Shared by the SimHash text path and the pHash image path."""
    sh = batch[sig_col].to_numpy().view(np.uint64)
    n = len(sh)
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)
    band_vals = np.empty((n, bands), dtype=np.int64)
    for b in range(bands):
        band_vals[:, b] = ((sh >> np.uint64(b * width)) & mask).astype(np.int64)
    take = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
    return pa.table(
        {
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int64), n), pa.int64()),
            "band_val": pa.array(band_vals.ravel(), pa.int64()),
            key_col: batch[key_col].take(take),
            sig_col: batch[sig_col].take(take),
        }
    )


def simhash_band_explode(batch: pa.Table, bands: int = 4) -> pa.Table:
    """(doc_id, simhash) → one row per 16-bit band (hamming≤3 blocking:
    two docs within hamming 3 of a 64-bit hash share ≥1 exact band)."""
    return band_explode(batch, "doc_id", "simhash", bands=bands)


class SimhashPairs:
    """map_groups on (band_id, band_val): verified hamming pairs.

    EXACT — every within-bucket pair is evaluated; a hot bucket is
    processed in row chunks so the pairwise xor matrix stays under
    ``max_matrix`` elements (memory-bounded, never silently
    truncated — the old cap dropped real pairs once a bucket passed
    it).  The quadratic pair count of a pathological bucket is
    inherent to band blocking; chunking bounds the memory, not the
    work."""

    def __init__(
        self,
        max_hamming: int = 3,
        max_matrix: int = 1 << 22,
        key_col: str = "doc_id",
        sig_col: str = "simhash",
        out_cols: tuple[str, str] = ("doc_a", "doc_b"),
    ):
        self.max_hamming = max_hamming
        self.max_matrix = max_matrix
        self.key_col = key_col
        self.sig_col = sig_col
        self.out_cols = out_cols
        self.__name__ = type(self).__name__
        # Most band buckets are singletons (band values spread over
        # 2^16); the per-group cost must be nanoseconds, not a fresh
        # Arrow schema build — cache the empty result once.
        self._empty = pa.schema(
            [
                pa.field(out_cols[0], pa.int64()),
                pa.field(out_cols[1], pa.int64()),
                pa.field("hamming", pa.int64()),
            ]
        ).empty_table()

    def __call__(self, group: pa.Table) -> pa.Table:
        empty = self._empty
        if group.num_rows < 2:
            return empty
        ids = group[self.key_col].to_numpy()
        sh = group[self.sig_col].to_numpy().view(np.uint64)
        uniq, pos = np.unique(ids, return_index=True)
        sh = sh[pos]
        n = len(uniq)
        col_a, col_b = self.out_cols
        if n < 2:
            return empty
        chunk = max(1, self.max_matrix // n)
        out_a, out_b, out_h = [], [], []
        for lo in range(0, n - 1, chunk):
            hi = min(lo + chunk, n)
            x = np.ascontiguousarray(sh[lo:hi, None] ^ sh[None, :])
            # Byte-LUT popcount: 8 table lookups + a sum per element,
            # instead of a 64-iteration shift-and-mask loop.
            ham = _POPCOUNT8[x.view(np.uint8).reshape(x.shape + (8,))].sum(
                axis=-1, dtype=np.int64
            )
            ii, jj = np.nonzero(ham <= self.max_hamming)
            keep = (ii + lo) < jj  # upper triangle only
            if keep.any():
                out_a.append(uniq[ii[keep] + lo])
                out_b.append(uniq[jj[keep]])
                out_h.append(ham[ii[keep], jj[keep]])
        if not out_a:
            return empty
        return pa.table(
            {
                col_a: pa.array(np.concatenate(out_a), pa.int64()),
                col_b: pa.array(np.concatenate(out_b), pa.int64()),
                "hamming": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )


# ------------------------------------------------------------- embeddings


def rademacher_planes(dim: int, n_bits: int, seed: int) -> np.ndarray:
    """Deterministic ±1 hyperplanes from splitmix64(seed, d, b).

    Rademacher projections give the same sign-LSH collision guarantees
    as gaussian planes, and the matrix is a pure integer-hash function
    — so oracles can inline it as literals and reproduce the exact
    bucketing."""
    from .footprint import _splitmix64

    idx = (
        np.uint64(seed) * np.uint64(1_000_003)
        + np.arange(dim, dtype=np.uint64)[:, None] * np.uint64(n_bits)
        + np.arange(n_bits, dtype=np.uint64)[None, :]
    )
    s = _splitmix64(idx)
    return np.where((s >> np.uint64(63)).astype(bool), 1.0, -1.0)


class EmbeddingLshBucket:
    """Sign-LSH bucketing of unit-normalized embeddings (seeded
    deterministic Rademacher planes — see ``rademacher_planes``)."""

    def __init__(self, dim: int = 64, n_bits: int = 12, seed: int = 13):
        self.planes = rademacher_planes(dim, n_bits, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = batch["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        n = len(emb)
        vecs = _list_matrix(emb, n)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        unit = vecs / np.maximum(norms, 1e-12)
        bits = (unit @ self.planes) > 0
        bucket = np.zeros(n, dtype=np.int64)
        for b in range(bits.shape[1]):
            bucket |= bits[:, b].astype(np.int64) << b
        out = pa.table(
            {
                "vec_id": batch["vec_id"],
                "bucket": pa.array(bucket, pa.int64()),
                "embedding": emb,
            }
        )
        return out


class EmbeddingNearDupPairs:
    """map_groups on bucket: cosine ≥ threshold pairs within bucket.

    EXACT within the bucket — hot buckets are evaluated in row chunks
    (bounded similarity matrix) instead of silently truncated."""

    def __init__(self, threshold: float = 0.95, max_matrix: int = 1 << 21):
        self.threshold = threshold
        self.max_matrix = max_matrix
        self.__name__ = type(self).__name__
        # singleton buckets dominate — cached empty result, cheap exit
        self._empty = pa.schema(
            [
                pa.field("vec_a", pa.int64()),
                pa.field("vec_b", pa.int64()),
                pa.field("cosine", pa.float64()),
            ]
        ).empty_table()

    def __call__(self, group: pa.Table) -> pa.Table:
        empty = self._empty
        if group.num_rows < 2:
            return empty
        ids = group["vec_id"].to_numpy()
        vecs = _list_matrix(group["embedding"], len(ids))
        uniq, pos = np.unique(ids, return_index=True)
        vecs = vecs[pos]
        n = len(uniq)
        if n < 2:
            return empty
        unit = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        chunk = max(1, self.max_matrix // n)
        out_a, out_b, out_c = [], [], []
        for lo in range(0, n - 1, chunk):
            hi = min(lo + chunk, n)
            sim = unit[lo:hi] @ unit.T
            ii, jj = np.nonzero(sim >= self.threshold)
            keep = (ii + lo) < jj
            if keep.any():
                out_a.append(uniq[ii[keep] + lo])
                out_b.append(uniq[jj[keep]])
                out_c.append(sim[ii[keep], jj[keep]].astype(np.float64))
        if not out_a:
            return empty
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(out_a), pa.int64()),
                "vec_b": pa.array(np.concatenate(out_b), pa.int64()),
                "cosine": pa.array(np.concatenate(out_c)),
            }
        )


# ------------------------------------------------------------- components

_I64_MAX = (1 << 63) - 1


def connected_components(pairs_ds, max_rounds: int = 30, a_col: str = "doc_a", b_col: str = "doc_b", n_buckets: int | None = None):
    """Distributed connected components over candidate pairs.

    pairs_ds: Dataset of (doc_a, doc_b).  Returns Dataset of
    (node, component) where component = the min node id in the
    connected component — exact (runs to fixpoint, ``max_rounds`` is a
    runaway backstop, not the correctness bound).

    Plan per round — labels never touch the driver (the old
    implementation pulled every label into a driver dict each round):

      1. PROPAGATE  edges ⋈ labels on peer (bucketed shuffle join) so
         each node sees its neighbors' current labels, union with the
         current labels carrying the round-start label in an ``old``
         column, then ONE groupby(node) with Min(label) + Min(old).
      2. SHORTCUT   pointer jumping: label(node) ← label(label(node))
         via labels ⋈ labels.  Halves chain depth each round, so
         convergence is O(log diameter) instead of O(diameter).
      3. The round's labels are repartitioned to a FIXED block count
         and materialized (distributed, in the object store).  Both
         matter: unions double block counts, so without the cap the
         per-round block count grows 4× per round and task-scheduling
         overhead explodes; without the materialize the shortcut join
         (two consumers + schema probes) re-executes the propagate
         shuffle several times.  The driver pulls ONE scalar per
         round: Σ changed (0/1 per node); changed == 0 ⇒ fixpoint.
    """
    from .footprint import _splitmix64
    from .join import shuffle_hash_join

    def _min_by_node(ds, value_cols, nb):
        """groupby(node) Min over value_cols WITHOUT per-key Python:
        node cardinality is ~rows, and both Ray's generic Aggregate
        and per-key map_groups pay per-distinct-key overhead (profiled
        at ~170 CPU-s for ~1M keys).  Bucket by node hash instead —
        the same single exchange, then one argsort+minimum.reduceat
        kernel per bucket."""

        def add_bucket(b: pa.Table) -> pa.Table:
            node = b["node"].to_numpy().astype(np.uint64)
            h = _splitmix64(node) % np.uint64(nb)
            return b.append_column("cc_bucket", pa.array(h.astype(np.int64)))

        def merge(group: pa.Table) -> pa.Table:
            node = group["node"].to_numpy()
            order = np.argsort(node, kind="stable")
            ns = node[order]
            starts = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1]) + 1))
            out = {"node": pa.array(ns[starts], pa.int64())}
            for c in value_cols:
                v = group[c].to_numpy()[order]
                out[c] = pa.array(
                    np.minimum.reduceat(v, starts).astype(np.int64)
                )
            return pa.table(out)

        return (
            ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("cc_bucket")
            .map_groups(merge, batch_format="pyarrow")
        )

    def _fresh(ds):
        """Materialize AND sever lineage.  Each round's shortcut join
        reads the same parent dataset twice, and Ray Data traverses
        plan/stats lineage as a TREE (no memoization) — so chaining
        materialize() alone makes driver-side planning+stats work
        DOUBLE per round (exponential in rounds; profiled at minutes
        per round by round 12).  Re-rooting the dataset on its
        materialized block refs keeps every block in the object store
        (nothing touches the driver) while giving the next round a
        depth-1 plan."""
        import ray.data as rd

        return rd.from_arrow_refs(ds.materialize().to_arrow_refs())

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[a_col]
        b = batch[b_col]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        return pa.table(
            {
                "node": pa.concat_arrays([a, b]),
                "peer": pa.concat_arrays([b, a]),
            }
        )

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow").materialize()
    if n_buckets is None:
        # scale partitioning with the graph: every extra block/bucket
        # costs a task per round, so tiny graphs run near-single-block
        # while big ones spread across the cluster
        n_buckets = int(min(256, max(2, edges.count() // 65536)))
    edges = _fresh(edges.repartition(n_buckets))

    # labels₀: every node labels itself
    labels = _min_by_node(
        edges.map_batches(
            lambda b: pa.table({"node": b["node"], "label": b["node"]}),
            batch_format="pyarrow",
        ),
        ["label"],
        n_buckets,
    ).repartition(n_buckets)
    labels = _fresh(labels)

    i64 = pa.int64()
    edge_schema = pa.schema([("node", i64), ("peer", i64)])
    peer_label_schema = pa.schema([("peer", i64), ("label", i64)])
    jump_left_schema = pa.schema([("key", i64), ("node", i64), ("old", i64)])
    jump_right_schema = pa.schema([("key", i64), ("label2", i64)])

    for _ in range(max_rounds):
        # -- propagate: neighbors' labels flow along edges
        flowed = shuffle_hash_join(
            edges,
            labels.map_batches(
                lambda b: b.rename_columns(["peer", "label"]), batch_format="pyarrow"
            ),
            key="peer",
            left_cols=["node"],
            right_cols=["label"],
            n_buckets=n_buckets,
            left_schema=edge_schema,
            right_schema=peer_label_schema,
        ).map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "label": b["label"],
                    "old": pa.array(
                        np.full(b.num_rows, _I64_MAX, dtype=np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        own = labels.map_batches(
            lambda b: pa.table({"node": b["node"], "label": b["label"], "old": b["label"]}),
            batch_format="pyarrow",
        )
        # materialized so the shortcut join (which reads it on BOTH
        # sides, plus schema probes) executes the propagate shuffle
        # exactly once per round
        propagated = _min_by_node(own.union(flowed), ["label", "old"], n_buckets)
        propagated = _fresh(propagated)

        # -- shortcut (pointer jumping): label ← label(label)
        jumped = shuffle_hash_join(
            propagated.map_batches(
                lambda b: pa.table({"key": b["label"], "node": b["node"], "old": b["old"]}),
                batch_format="pyarrow",
            ),
            propagated.map_batches(
                lambda b: pa.table({"key": b["node"], "label2": b["label"]}),
                batch_format="pyarrow",
            ),
            key="key",
            left_cols=["node", "old"],
            right_cols=["label2"],
            n_buckets=n_buckets,
            left_schema=jump_left_schema,
            right_schema=jump_right_schema,
        ).map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"],
                    "label": b["label2"],
                    "changed": pa.array(
                        (
                            b["label2"].to_numpy(zero_copy_only=False)
                            < b["old"].to_numpy(zero_copy_only=False)
                        ).astype(np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        ).repartition(n_buckets)
        jumped = _fresh(jumped)

        labels = jumped.select_columns(["node", "label"])
        changed = jumped.sum("changed")
        if not changed:
            break
    else:
        # with pointer jumping, max_rounds=30 covers diameters up to
        # ~2^30; exhausting it means something is wrong — never return
        # possibly-unconverged labels silently
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "component": b["label"]}),
        batch_format="pyarrow",
    )


def pair_reduce(pairs_ds, a_col: str, b_col: str, val_col: str, how: str = "min", n_buckets: int = 64):
    """Merge duplicate candidate pairs (the same pair surfaces from
    several LSH bands/buckets) into one row carrying min/max of
    ``val_col``.  Pair cardinality is ~candidates — rows-scale — so
    the generic per-key aggregate would pay per-distinct-key overhead;
    instead the (a, b) pair rides as TWO int64 columns (full 64-bit id
    spaces welcome — the incremental append path puts new docs at
    ≥ 2^40, which a packed ``(a<<32)|b`` key would silently corrupt),
    a splitmix64 bucket over the mixed pair co-locates all instances,
    and one lexsort + ufunc.reduceat per bucket merges at C speed.
    Column names and dtypes are preserved."""
    from .footprint import _splitmix64

    ufunc = {"min": np.minimum, "max": np.maximum}[how]

    def add_key(b: pa.Table) -> pa.Table:
        a = b[a_col].to_numpy().astype(np.int64)
        bb = b[b_col].to_numpy().astype(np.int64)
        h = _splitmix64(
            _splitmix64(a.view(np.uint64)) ^ bb.view(np.uint64)
        ) % np.uint64(n_buckets)
        return pa.table(
            {
                a_col: pa.array(a),
                b_col: pa.array(bb),
                val_col: b[val_col],
                "bucket": pa.array(h.astype(np.int64)),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        a = group[a_col].to_numpy()
        bb = group[b_col].to_numpy()
        v = group[val_col].to_numpy()
        order = np.lexsort((bb, a))
        a, bb, v = a[order], bb[order], v[order]
        starts = np.concatenate(
            ([0], np.flatnonzero((a[1:] != a[:-1]) | (bb[1:] != bb[:-1])) + 1)
        )
        red = ufunc.reduceat(v, starts)
        return pa.table(
            {
                a_col: pa.array(a[starts]),
                b_col: pa.array(bb[starts]),
                val_col: pa.array(red),
            }
        )

    return (
        pairs_ds.map_batches(add_key, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(merge, batch_format="pyarrow")
    )


# ------------------------------------------- bucketed banded candidates


def banded_pairs_bucketed(
    exploded,
    *,
    band_cols: tuple[str, ...],
    id_col: str,
    payload_extract,
    pair_eval,
    out_cols: tuple[str, str],
    val_col: str,
    val_type,
    n_buckets: int = 64,
    pair_chunk: int = 1 << 16,
):
    """LSH candidate-pair stage WITHOUT per-band-bucket Python dispatch.

    The band-bucket key (band_id, band_hash) has ~bands×rows
    cardinality and is dominated by singletons, so
    ``groupby(band_cols).map_groups`` pays one Python call per distinct
    key (~170 CPU-s per 1M keys measured — the repo's forbidden
    pattern).  Instead: shuffle by ``splitmix64(band key) % n_buckets``
    — the exchange is identical (all rows of a band bucket share a
    shuffle bucket) — then ONE vectorized kernel per shuffle bucket:

      1. lexsort rows by (band_cols..., id); equal band keys become
         contiguous runs, singleton runs (the vast majority) cost a
         comparison each, never a Python call;
      2. emit within-run index pairs with one vectorized pass per pair
         DISTANCE (O(max_run) passes — the ``_triu_pairs`` shape, never
         the O(run²) nested loop);
      3. verify every candidate pair with ``pair_eval`` in bounded
         chunks (memory guard for hot runs — bounds the tensor, never
         truncates the work).

    ``payload_extract(group) -> np.ndarray``: per-row verification
    payload (rows in GROUP order; the kernel reindexes it).
    ``pair_eval(payload, ia, ib) -> (vals, keep)``: vectorized verdict
    for index pairs into that payload.  Output schema is
    ``(out_cols[0], out_cols[1], val_col)`` with ids ascending within
    each pair; duplicate pair rows across bands survive (merge with
    ``pair_reduce``, exactly like the per-group stages did).
    """
    kernel = make_band_bucket_kernel(
        band_cols=band_cols,
        id_col=id_col,
        payload_extract=payload_extract,
        pair_eval=pair_eval,
        out_cols=out_cols,
        val_col=val_col,
        val_type=val_type,
        pair_chunk=pair_chunk,
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        return band_bucket_column(b, band_cols, n_buckets)

    return (
        exploded.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(kernel, batch_format="pyarrow")
    )


def band_bucket_column(b: pa.Table, band_cols, n_buckets: int) -> pa.Table:
    """Append the splitmix64(band key) % n_buckets shuffle column —
    shared by the in-flight exchange AND the persisted band store (the
    store's hive partitioning must agree with the exchange's bucket)."""
    from .footprint import _splitmix64

    key = np.zeros(b.num_rows, dtype=np.uint64)
    for c in band_cols:
        key = _splitmix64(
            key ^ b[c].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        )
    return b.append_column(
        "bucket", pa.array((key % np.uint64(n_buckets)).astype(np.int64))
    )


def make_band_bucket_kernel(
    *,
    band_cols,
    id_col,
    payload_extract,
    pair_eval,
    out_cols,
    val_col,
    val_type,
    pair_chunk: int = 1 << 16,
):
    """The ONE-vectorized-pass-per-bucket candidate kernel of
    ``banded_pairs_bucketed``, exposed so other physical plans (the
    persisted band-store incremental path) can run the identical
    logic over a bucket they assembled themselves."""
    empty = pa.schema(
        [
            pa.field(out_cols[0], pa.int64()),
            pa.field(out_cols[1], pa.int64()),
            pa.field(val_col, val_type),
        ]
    ).empty_table()

    def bucket_kernel(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n < 2:
            return empty
        bands = [
            group[c].to_numpy(zero_copy_only=False) for c in band_cols
        ]
        ids = group[id_col].to_numpy(zero_copy_only=False)
        # lexsort keys: last key is primary → (band_cols..., id)
        order = np.lexsort((ids, *reversed(bands)))
        bands = [bc[order] for bc in bands]
        ids_s = ids[order]
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = False
        for bc in bands:
            new_run[1:] |= bc[1:] != bc[:-1]
        # defensive: drop duplicate ids within a run (explode emits each
        # id once per band, but the old per-group np.unique tolerated
        # repeats — keep that contract)
        dup = np.zeros(n, dtype=bool)
        dup[1:] = (~new_run[1:]) & (ids_s[1:] == ids_s[:-1])
        if dup.any():
            keep_rows = ~dup
            order = order[keep_rows]
            bands = [bc[keep_rows] for bc in bands]
            ids_s = ids_s[keep_rows]
            n = len(ids_s)
            new_run = np.empty(n, dtype=bool)
            new_run[0] = True
            new_run[1:] = False
            for bc in bands:
                new_run[1:] |= bc[1:] != bc[:-1]
        run_starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(run_starts, n))
        max_run = int(run_len.max())
        if max_run < 2:
            return empty
        run_idx = np.cumsum(new_run) - 1
        pos = np.arange(n, dtype=np.int64) - run_starts[run_idx]
        end_slack = run_len[run_idx] - pos  # rows after (incl.) self in run
        ia_parts, ib_parts = [], []
        for d in range(1, max_run):
            i = np.flatnonzero(end_slack > d)
            if len(i) == 0:
                break
            ia_parts.append(i)
            ib_parts.append(i + d)
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        payload = payload_extract(group)[order]
        out_a, out_b, out_v = [], [], []
        for lo in range(0, len(ia), pair_chunk):
            ca, cb = ia[lo : lo + pair_chunk], ib[lo : lo + pair_chunk]
            vals, keep = pair_eval(payload, ca, cb)
            if keep.any():
                out_a.append(ids_s[ca[keep]])
                out_b.append(ids_s[cb[keep]])
                out_v.append(vals[keep])
        if not out_a:
            return empty
        return pa.table(
            {
                out_cols[0]: pa.array(
                    np.concatenate(out_a).astype(np.int64), pa.int64()
                ),
                out_cols[1]: pa.array(
                    np.concatenate(out_b).astype(np.int64), pa.int64()
                ),
                val_col: pa.array(np.concatenate(out_v)).cast(val_type),
            }
        )

    return bucket_kernel


def minhash_candidate_pairs(exploded, threshold: float, n_buckets: int = 64):
    """Bucketed replacement for ``groupby(band_id, band_hash).
    map_groups(LshCandidatePairs)``: same verified-pair output
    (signature-equality Jaccard estimate ≥ threshold), no per-band-
    bucket Python dispatch.  Merge duplicates with ``pair_reduce``."""

    def extract(group: pa.Table) -> np.ndarray:
        return _list_matrix(group["sig"], group.num_rows)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        est = (p[ia] == p[ib]).mean(axis=1)
        return est, est >= threshold

    return banded_pairs_bucketed(
        exploded,
        band_cols=("band_id", "band_hash"),
        id_col="doc_id",
        payload_extract=extract,
        pair_eval=ev,
        out_cols=("doc_a", "doc_b"),
        val_col="est_jaccard",
        val_type=pa.float64(),
        n_buckets=n_buckets,
    )


def lsh_band_explode_lean(batch: pa.Table, bands: int = 8) -> pa.Table:
    """(doc_id, sig) → (band_id, band_hash, doc_id) WITHOUT the
    signature payload: 24 bytes/row on the candidate exchange instead
    of ~536 (the sig rides once per band otherwise — an 8× duplication
    that dominates the shuffle at scale)."""
    return lsh_band_explode(batch, bands=bands).drop_columns(["sig"])


def minhash_candidate_pairs_lean(sigs_ds, threshold: float, n_buckets: int = 64):
    """Scale variant of ``minhash_candidate_pairs``: candidates from
    band equality alone (no payload on the band exchange), then ONE
    bucketed join ships each doc's signature once to its pairs and a
    pair-bucketed kernel verifies the (sig_a == sig_b) estimate.

    Exchange volume is ∝ docs + pairs (24 B band rows + one sig copy
    per doc + pair rows) instead of ∝ docs × bands × sig — measured
    8.8 GB → ~3.5 GB at 2M docs.  The signature stage runs twice (once
    for bands, once for the verify join) — recompute is the
    streaming-correct trade at 10⁹ rows, where materializing the sig
    table would pin docs × 520 B in the object store.  Same output as
    the compact variant (same oracle)."""
    from .footprint import _splitmix64
    from .join import shuffle_hash_join

    n_perm = 64

    bands = sigs_ds.map_batches(lsh_band_explode_lean, batch_format="pyarrow")

    def extract(group: pa.Table) -> np.ndarray:
        # no payload: candidate emission only, verification deferred
        return np.empty((group.num_rows, 0), dtype=np.int64)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        return np.ones(len(ia), dtype=np.int64), np.ones(len(ia), dtype=bool)

    cand = banded_pairs_bucketed(
        bands,
        band_cols=("band_id", "band_hash"),
        id_col="doc_id",
        payload_extract=extract,
        pair_eval=ev,
        out_cols=("doc_a", "doc_b"),
        val_col="one",
        val_type=pa.int64(),
        n_buckets=n_buckets,
    )
    cand = pair_reduce(cand, "doc_a", "doc_b", "one", how="min")

    def explode_pairs(b: pa.Table) -> pa.Table:
        a64 = b["doc_a"].to_numpy()
        b64 = b["doc_b"].to_numpy()
        # pair_key packs (doc_a, doc_b) as two uint32 halves; ids outside
        # [0, 2^32) would silently collide — raise loudly instead (carry the
        # pair as two columns / a two-word key, like content_hash, if a
        # corpus ever needs wider ids).
        if len(a64) and (
            a64.min() < 0
            or b64.min() < 0
            or a64.max() >= 1 << 32
            or b64.max() >= 1 << 32
        ):
            raise ValueError(
                "minhash_candidate_pairs_lean packs doc ids as uint32 halves; "
                "got ids outside [0, 2^32)"
            )
        a = a64.astype(np.uint64)
        bb = b64.astype(np.uint64)
        key = ((a << np.uint64(32)) | bb).view(np.int64)
        m = len(a)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([a, bb]).astype(np.int64), pa.int64()
                ),
                "pair_key": pa.array(np.concatenate([key, key]), pa.int64()),
                "slot": pa.array(
                    np.concatenate([np.zeros(m, np.int64), np.ones(m, np.int64)]),
                    pa.int64(),
                ),
            }
        )

    pair_docs = cand.map_batches(explode_pairs, batch_format="pyarrow")

    def pack_sig(b: pa.Table) -> pa.Table:
        # Acero joins don't carry nested payloads — pack the signature
        # as fixed_size_binary for the join leg (zero-copy reinterpret)
        sig = b["sig"]
        if isinstance(sig, pa.ChunkedArray):
            sig = sig.combine_chunks()
        flat = sig.values.to_numpy(zero_copy_only=False).astype(np.int64)
        fsb = pa.Array.from_buffers(
            pa.binary(8 * n_perm), len(sig), [None, pa.py_buffer(flat.tobytes())]
        )
        return pa.table({"doc_id": b["doc_id"], "sigb": fsb})

    joined = shuffle_hash_join(
        pair_docs,
        sigs_ds.map_batches(pack_sig, batch_format="pyarrow"),
        "doc_id",
        ["pair_key", "slot"],
        ["sigb"],
        n_buckets=n_buckets,
        left_schema=pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("pair_key", pa.int64()),
                pa.field("slot", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("sigb", pa.binary(8 * n_perm)),
            ]
        ),
    )

    def add_pair_bucket(b: pa.Table) -> pa.Table:
        k = b["pair_key"].to_numpy().view(np.uint64)
        return pa.table(
            {
                "pair_key": b["pair_key"],
                "slot": b["slot"],
                "sigb": b["sigb"],
                "vbucket": pa.array(
                    (_splitmix64(k) % np.uint64(n_buckets)).astype(np.int64)
                ),
            }
        )

    empty = pa.schema(
        [
            pa.field("doc_a", pa.int64()),
            pa.field("doc_b", pa.int64()),
            pa.field("est_jaccard", pa.float64()),
        ]
    ).empty_table()

    def verify_bucket(group: pa.Table) -> pa.Table:
        k = group["pair_key"].to_numpy()
        slot = group["slot"].to_numpy()
        order = np.lexsort((slot, k))
        k = k[order]
        sb = group["sigb"]
        if isinstance(sb, pa.ChunkedArray):
            sb = sb.combine_chunks()
        sig = (
            np.frombuffer(sb.buffers()[1], dtype=np.int64)[
                sb.offset * n_perm : (sb.offset + len(sb)) * n_perm
            ].reshape(len(sb), n_perm)
        )[order]
        slot = slot[order]
        # rows must alternate (slot 0, slot 1) per pair_key — a duplicate
        # doc_id in the signatures dataset would make the join emit >2 rows
        # for a pair and silently misalign every later pair in the bucket.
        # Cheap invariant check: fail loudly instead.
        if (
            len(k) % 2 != 0
            or not (k[0::2] == k[1::2]).all()
            or not (slot[0::2] == 0).all()
            or not (slot[1::2] == 1).all()
        ):
            raise ValueError(
                "verify_bucket: pair rows not strictly (slot0, slot1) per "
                "pair_key — duplicate doc_id in the signatures dataset?"
            )
        a = sig[0::2]
        b = sig[1::2]
        est = (a == b).mean(axis=1)
        keep = est >= threshold
        if not keep.any():
            return empty
        uk = k[0::2][keep].view(np.uint64)
        return pa.table(
            {
                "doc_a": pa.array(
                    (uk >> np.uint64(32)).astype(np.int64), pa.int64()
                ),
                "doc_b": pa.array(
                    (uk & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()
                ),
                "est_jaccard": pa.array(est[keep]),
            }
        )

    return (
        joined.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("vbucket")
        .map_groups(verify_bucket, batch_format="pyarrow")
    )


def hamming_candidate_pairs(
    exploded,
    max_hamming: int,
    *,
    key_col: str = "doc_id",
    sig_col: str = "simhash",
    out_cols: tuple[str, str] = ("doc_a", "doc_b"),
    n_buckets: int = 64,
):
    """Bucketed replacement for ``groupby(band_id, band_val).
    map_groups(SimhashPairs)`` (text SimHash and image pHash paths):
    byte-LUT popcount verify, hamming ≤ max_hamming, no per-band-bucket
    Python dispatch.  Merge duplicates with ``pair_reduce``."""

    def extract(group: pa.Table) -> np.ndarray:
        return np.ascontiguousarray(
            group[sig_col].to_numpy(zero_copy_only=False)
        ).view(np.uint64)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        x = np.ascontiguousarray(p[ia] ^ p[ib])
        ham = _POPCOUNT8[x.view(np.uint8).reshape(-1, 8)].sum(
            axis=-1, dtype=np.int64
        )
        return ham, ham <= max_hamming

    return banded_pairs_bucketed(
        exploded,
        band_cols=("band_id", "band_val"),
        id_col=key_col,
        payload_extract=extract,
        pair_eval=ev,
        out_cols=out_cols,
        val_col="hamming",
        val_type=pa.int64(),
        n_buckets=n_buckets,
    )


def incremental_hamming_pairs(
    exploded,
    max_hamming: int,
    new_min_id: int,
    *,
    key_col: str = "doc_id",
    sig_col: str = "simhash",
    out_cols: tuple[str, str] = ("doc_a", "doc_b"),
    n_buckets: int = 64,
):
    """Incremental hamming near-dup (SimHash text / pHash image):
    candidate pairs touching AT LEAST ONE new id (ids ≥ ``new_min_id``
    occupy the disjoint append space) over prior ∪ new band rows.
    The prior corpus contributes only its 16 B/row signatures — never
    re-decoded/re-tokenized — and old×old pairs skip the popcount
    verify via the payload flag, mirroring
    ``incremental_minhash_pairs``."""

    def extract(group: pa.Table) -> np.ndarray:
        sig = np.ascontiguousarray(
            group[sig_col].to_numpy(zero_copy_only=False)
        ).view(np.uint64)
        flag = (group[key_col].to_numpy() >= new_min_id).astype(np.uint64)
        return np.stack([sig, flag], axis=1)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        touch = (p[ia, 1] + p[ib, 1]) > 0
        ham = np.full(len(ia), max_hamming + 1, dtype=np.int64)
        if touch.any():
            x = np.ascontiguousarray(p[ia[touch], 0] ^ p[ib[touch], 0])
            ham[touch] = _POPCOUNT8[x.view(np.uint8).reshape(-1, 8)].sum(
                axis=-1, dtype=np.int64
            )
        return ham, touch & (ham <= max_hamming)

    return banded_pairs_bucketed(
        exploded,
        band_cols=("band_id", "band_val"),
        id_col=key_col,
        payload_extract=extract,
        pair_eval=ev,
        out_cols=out_cols,
        val_col="hamming",
        val_type=pa.int64(),
        n_buckets=n_buckets,
    )


def incremental_exact_dedup(new_sigs, prior_sigs, n_buckets: int = DEDUP_BUCKETS):
    """Incremental exact dedup against PERSISTED signatures: flag each
    NEW doc that duplicates (same 128-bit content hash) any PRIOR doc
    or a smaller-id new doc, without ever re-reading — let alone
    re-signing — the prior corpus.  ``prior_sigs`` is the signature
    table a previous run persisted (read_parquet of
    (doc_id, content_hash, content_hash_hi) — 24 B/doc); ``new_sigs``
    is the same schema for the append batch.

    Returns (doc_id, keeper) for flagged new docs, keeper = the
    smallest qualifying partner (the canonical doc the duplicate
    collapses into).  ONE bucketed shuffle over old+new signature rows;
    per bucket a single lexsort + run-boundary kernel (never per-key
    dispatch).  Equivalence: with prior_sigs empty this is exactly the
    full-corpus drop decision, so incremental(old, new) flags on new
    docs == full-run flags restricted to new docs (prior-vs-prior dups
    are the previous run's business, by construction)."""
    from .footprint import _splitmix64

    def tag(is_new: int):
        def fn(b: pa.Table) -> pa.Table:
            h = b["content_hash"].to_numpy().astype(np.uint64)
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "h_lo": b["content_hash"],
                    "h_hi": b["content_hash_hi"],
                    "is_new": pa.array(
                        np.full(b.num_rows, is_new, dtype=np.int8), pa.int8()
                    ),
                    "bucket": pa.array(
                        (_splitmix64(h) % np.uint64(n_buckets)).astype(np.int64)
                    ),
                }
            )

        return fn

    unioned = new_sigs.map_batches(tag(1), batch_format="pyarrow").union(
        prior_sigs.map_batches(tag(0), batch_format="pyarrow")
    )

    empty = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("keeper", pa.int64())]
    ).empty_table()

    def flag_bucket(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy()
        lo = group["h_lo"].to_numpy()
        hi = group["h_hi"].to_numpy()
        nw = group["is_new"].to_numpy().astype(bool)
        order = np.lexsort((d, hi, lo))
        d, lo, hi, nw = d[order], lo[order], hi[order], nw[order]
        run_id = np.concatenate(
            ([0], np.cumsum((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        )
        starts = np.concatenate(([0], np.flatnonzero(np.diff(run_id)) + 1))
        # docs ascend within each hash run, so the run head is the
        # global min partner for every later doc; a run-head NEW doc
        # can only be flagged by a prior partner (necessarily larger)
        first = np.zeros(len(d), dtype=bool)
        first[starts] = True
        head = np.repeat(d[starts], np.diff(np.append(starts, len(d))))
        INF = np.iinfo(np.int64).max
        dp = np.where(~nw, d, INF)
        min_prior = np.repeat(
            np.minimum.reduceat(dp, starts) if len(d) else np.empty(0, np.int64),
            np.diff(np.append(starts, len(d))),
        )
        keeper = np.where(first, min_prior, head)
        flag = nw & (keeper != INF)
        if not flag.any():
            return empty
        return pa.table(
            {
                "doc_id": pa.array(d[flag], pa.int64()),
                "keeper": pa.array(keeper[flag], pa.int64()),
            }
        )

    return unioned.groupby("bucket").map_groups(flag_bucket, batch_format="pyarrow")


def write_band_store(sigs_ds, store_dir: str, n_buckets: int = 64):
    """Persist a corpus's LSH band rows hash-partitioned by the SAME
    splitmix64(band key) % n_buckets bucket the candidate exchange
    uses: ``store_dir/bucket=K/*.parquet``.  A later append-only run
    can then dedup new docs against the corpus with NO old-side
    shuffle at all — each bucket task reads its store partition
    directly (``incremental_minhash_pairs_store``).  At 10^12 docs
    the store is ~0.4% of corpus bytes and the incremental exchange
    carries ONLY the append batch."""

    def explode_bucket(b: pa.Table) -> pa.Table:
        return band_bucket_column(
            lsh_band_explode(b), ("band_id", "band_hash"), n_buckets
        )

    sigs_ds.map_batches(explode_bucket, batch_format="pyarrow").write_parquet(
        store_dir, partition_cols=["bucket"]
    )


def incremental_minhash_pairs_store(
    new_sigs,
    store_dir: str,
    threshold: float,
    new_min_id: int,
    n_buckets: int = 64,
):
    """Incremental MinHash+LSH against a PERSISTED, bucket-partitioned
    band store (``write_band_store``): the append batch is signed,
    exploded and shuffled by band bucket — the ONLY exchange — and
    each bucket task concatenates its store partition (a direct
    parquet read, no shuffle) with the new rows and runs the identical
    ``make_band_bucket_kernel`` logic.  Buckets where no new doc lands
    are never read at all; old×old pairs are skipped before the
    64-wide verify exactly as in ``incremental_minhash_pairs``.
    Output pairs are identical to the union-exchange plan."""
    import os

    import pyarrow.parquet as pq_mod

    def extract(group: pa.Table) -> np.ndarray:
        m = _list_matrix(group["sig"], group.num_rows)
        flag = (group["doc_id"].to_numpy() >= new_min_id).astype(m.dtype)
        return np.concatenate([m, flag[:, None]], axis=1)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        touch = (p[ia, -1] + p[ib, -1]) > 0
        est = np.zeros(len(ia), dtype=np.float64)
        if touch.any():
            est[touch] = (p[ia[touch], :-1] == p[ib[touch], :-1]).mean(axis=1)
        return est, touch & (est >= threshold)

    kernel = make_band_bucket_kernel(
        band_cols=("band_id", "band_hash"),
        id_col="doc_id",
        payload_extract=extract,
        pair_eval=ev,
        out_cols=("doc_a", "doc_b"),
        val_col="est_jaccard",
        val_type=pa.float64(),
    )
    cols = ["band_id", "band_hash", "doc_id", "sig"]

    def bucket_with_store(group: pa.Table) -> pa.Table:
        k = int(group["bucket"][0].as_py())
        part = os.path.join(store_dir, f"bucket={k}")
        new_rows = _fix_sig_cols(group.select(cols))
        if os.path.isdir(part):
            old = _fix_sig_cols(pq_mod.read_table(part, columns=cols))
            comb = pa.concat_tables([old, new_rows])
        else:
            comb = new_rows
        return kernel(comb)

    def _fix_sig_cols(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sig = t["sig"]
        if isinstance(sig, pa.ChunkedArray):
            sig = sig.combine_chunks()
        if not pa.types.is_fixed_size_list(sig.type):
            n_perm = len(sig[0]) if len(sig) else 64
            sig = pa.FixedSizeListArray.from_arrays(pc.list_flatten(sig), n_perm)
        return pa.table(
            {
                "band_id": t["band_id"],
                "band_hash": t["band_hash"],
                "doc_id": t["doc_id"],
                "sig": sig,
            }
        )

    def explode_bucket(b: pa.Table) -> pa.Table:
        return band_bucket_column(
            lsh_band_explode(b), ("band_id", "band_hash"), n_buckets
        )

    return (
        new_sigs.map_batches(explode_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_with_store, batch_format="pyarrow")
    )


def incremental_minhash_pairs(
    new_sigs,
    prior_sigs,
    threshold: float,
    new_min_id: int,
    n_buckets: int = 64,
):
    """Incremental MinHash+LSH near-dup: candidate pairs touching AT
    LEAST ONE new doc, over the union of a PERSISTED prior signature
    table and the freshly-signed append batch.  The prior corpus is
    never re-read or re-shingled — only its 536 B/doc signature rows
    re-enter the band exchange (at 10^12 docs: signatures are ~0.1% of
    corpus bytes, so the incremental run's input is ~append-sized).

    Same bucketed kernel as the full run; the "touches a new doc"
    predicate rides the verification payload as a flag column (new ids
    occupy a disjoint id space ≥ ``new_min_id``), so old×old pairs are
    skipped BEFORE the 64-wide signature comparison — candidate index
    generation still enumerates them (cheap), but the O(perms) verify
    work is only paid for pairs that can appear in the output."""

    def normalize_sig(b: pa.Table) -> pa.Table:
        """Parquet round-trips the signature as plain list<int64>;
        re-fix it to fixed_size_list so the band exchange ships
        offset-free buffers (measured ~25% off the incremental wall at
        400k prior docs)."""
        sig = b["sig"]
        if isinstance(sig, pa.ChunkedArray):
            sig = sig.combine_chunks()
        if not pa.types.is_fixed_size_list(sig.type):
            n_perm = len(sig[0]) if len(sig) else 64
            import pyarrow.compute as pc

            sig = pa.FixedSizeListArray.from_arrays(
                pc.list_flatten(sig), n_perm
            )
        return pa.table({"doc_id": b["doc_id"], "sig": sig})

    exploded = (
        prior_sigs.map_batches(normalize_sig, batch_format="pyarrow")
        .union(new_sigs)
        .map_batches(lsh_band_explode, batch_format="pyarrow")
    )

    def extract(group: pa.Table) -> np.ndarray:
        m = _list_matrix(group["sig"], group.num_rows)
        flag = (group["doc_id"].to_numpy() >= new_min_id).astype(m.dtype)
        return np.concatenate([m, flag[:, None]], axis=1)

    def ev(p: np.ndarray, ia: np.ndarray, ib: np.ndarray):
        touch = (p[ia, -1] + p[ib, -1]) > 0
        est = np.zeros(len(ia), dtype=np.float64)
        if touch.any():
            est[touch] = (p[ia[touch], :-1] == p[ib[touch], :-1]).mean(axis=1)
        return est, touch & (est >= threshold)

    return banded_pairs_bucketed(
        exploded,
        band_cols=("band_id", "band_hash"),
        id_col="doc_id",
        payload_extract=extract,
        pair_eval=ev,
        out_cols=("doc_a", "doc_b"),
        val_col="est_jaccard",
        val_type=pa.float64(),
        n_buckets=n_buckets,
    )
