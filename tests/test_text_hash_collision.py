"""Bigram identity under a planted token-hash collision.

``token_bigram_rows`` identifies a bigram by its two 64-bit FNV-1a token
hashes while the oracle groups the exact bigram strings.  A real
collision is out of reach at any test scale, so one is planted by
patching the hash: two distinct tokens then share a hash and their
bigrams merge.  The per-occurrence bigram counts the LM score is built
from change, so the engine's scores no longer equal the oracle's exact
string counts — the failure shows in the oracle check instead of
passing silently."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rust_geo_booleanop_ray.stages import text

DOCS = pa.table(
    {
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["the cat sat and the dog sat", "a dog and the cat"],
    }
)


def _occurrence_counts_by_hash(rows: pa.Table) -> list:
    """Each bigram occurrence's corpus count, keyed the engine's way."""
    pairs = list(zip(rows["ha"].to_pylist(), rows["hb"].to_pylist()))
    counts = Counter(pairs)
    return [counts[p] for p in pairs]


def _occurrence_counts_exact(batch: pa.Table) -> list:
    """The same counts keyed by the exact bigram strings (the oracle's way)."""
    pairs = []
    for doc in pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+").to_pylist():
        toks = [t for t in doc if t]
        pairs += list(zip(toks[:-1], toks[1:]))
    counts = Counter(pairs)
    return [counts[p] for p in pairs]


def test_hash_identity_matches_strings_without_collision():
    rows = text.token_bigram_rows(DOCS)
    assert _occurrence_counts_by_hash(rows) == _occurrence_counts_exact(DOCS)


def test_planted_collision_changes_counts(monkeypatch):
    real = text.ascii_token_hashes
    cat = real(pa.array(["cat"]))[0]

    def colliding(arr):
        h = real(arr)
        h[np.array(arr.to_pylist()) == "dog"] = cat  # "dog" now hashes as "cat"
        return h

    monkeypatch.setattr(text, "ascii_token_hashes", colliding)
    rows = text.token_bigram_rows(DOCS)
    by_hash = _occurrence_counts_by_hash(rows)
    exact = _occurrence_counts_exact(DOCS)
    assert len(by_hash) == len(exact)
    # "the cat"/"the dog" and "cat sat"/"dog sat" merge: the counts the
    # LM score sums differ from the exact-string counts the oracle uses
    assert by_hash != exact
    assert sum(by_hash) > sum(exact)
