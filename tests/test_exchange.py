"""The one hash exchange (``stages/exchange.py``): its bucket hash is the
one the engine always used, every key meets its kernel exactly once, and
bad keys fail loudly.  Also the byte-exact FNV-1a token hash the bigram
exchange keys on."""

import numpy as np
import pyarrow as pa
import pytest

from rust_geo_booleanop_ray.stages.exchange import N_BUCKETS, bucket_of, hash_exchange
from rust_geo_booleanop_ray.stages.footprint import _splitmix64


def _band_bucket_column(b: pa.Table, band_cols, n_buckets: int) -> np.ndarray:
    """The band-store bucket as the engine computed it before
    ``bucket_of`` (stored band partitions depend on it)."""
    key = np.zeros(b.num_rows, dtype=np.uint64)
    for c in band_cols:
        key = _splitmix64(key ^ b[c].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
    return (key % np.uint64(n_buckets)).astype(np.int64)


def test_one_column_bucket_is_splitmix64_mod_64():
    u = np.array([0, 1, -1, 7, 2**40 + 3, -(2**62), 2**63 - 1], dtype=np.int64)
    t = pa.table({"user_id": pa.array(u)})
    want = (_splitmix64(u.astype(np.uint64)) % np.uint64(64)).astype(np.int64)
    assert N_BUCKETS == 64
    np.testing.assert_array_equal(bucket_of(t, "user_id"), want)
    # a narrower integer column hashes the same values the same way
    t32 = pa.table({"user_id": pa.array(u[:4].astype(np.int32))})
    np.testing.assert_array_equal(bucket_of(t32, "user_id"), want[:4])


def test_band_key_bucket_matches_band_store_layout():
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "band_id": pa.array(rng.integers(0, 8, 500), pa.int64()),
            "band_hash": pa.array(rng.integers(-(2**63), 2**63 - 1, 500, dtype=np.int64)),
        }
    ).to_batches(max_chunksize=128)
    t = pa.Table.from_batches(t)  # chunked columns
    want = _band_bucket_column(t, ("band_id", "band_hash"), 64)
    np.testing.assert_array_equal(bucket_of(t, ["band_id", "band_hash"]), want)


def test_null_key_raises_naming_the_column():
    t = pa.table({"k": pa.array([1, None, 3], pa.int64())})
    with pytest.raises(ValueError, match="'k'.*null"):
        bucket_of(t, "k")


@pytest.mark.parametrize(
    "col", [pa.array([1.0, 2.0]), pa.array(["a", "b"]), pa.array([True, False])]
)
def test_non_integer_key_raises_type_error(col):
    t = pa.table({"id": pa.array([1, 2], pa.int64()), "k": col})
    with pytest.raises(TypeError, match="'k'"):
        bucket_of(t, ["id", "k"])


def test_every_key_meets_the_kernel_in_one_call(ray_session):
    """Over a 7-block Dataset, each key's rows all arrive in one kernel
    call, and every row arrives exactly once."""
    import ray.data as rd

    n = 3000
    keys = (np.arange(n) * 7919) % 211
    t = pa.table({"k": pa.array(keys, pa.int64()), "row": pa.array(np.arange(n), pa.int64())})
    ds = rd.from_arrow([t.slice(i, 430) for i in range(0, n, 430)])
    assert ds.num_blocks() == 7

    def kernel(group: pa.Table) -> pa.Table:
        bucket = group["bucket"].to_numpy()
        assert (bucket == bucket[0]).all()
        call = np.full(group.num_rows, int(group["row"].to_numpy().min()))
        return pa.table({"k": group["k"], "row": group["row"], "call": pa.array(call)})

    out = pa.Table.from_pylist(hash_exchange(ds, "k", kernel).take_all())
    assert sorted(out["row"].to_pylist()) == list(range(n))
    calls = {}
    for k, call in zip(out["k"].to_pylist(), out["call"].to_pylist()):
        assert calls.setdefault(k, call) == call, f"key {k} reached two kernel calls"
    assert len(calls) == 211
    assert len(set(calls.values())) <= N_BUCKETS


def test_empty_input_gives_empty_output(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = hash_exchange(rd.from_arrow(t), "k", lambda g: g.select(["k", "v"]))
    assert out.take_all() == []


def _fnv1a_reference(tokens) -> list:
    out = []
    for tok in tokens:
        h = 0xCBF29CE484222325
        for byte in tok.encode("ascii"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        out.append(h)
    return out


@pytest.mark.parametrize("str_type", [pa.string(), pa.large_string()])
def test_ascii_token_hashes_match_per_token_fnv1a(str_type):
    from rust_geo_booleanop_ray.stages.text import ascii_token_hashes

    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    tokens = ["".join(rng.choice(letters, int(n))) for n in rng.integers(1, 12, 2000)]
    tokens[17] = "x" * 5000  # one very long token among short ones
    tokens[18] = tokens[17][:4999]
    tokens[900] = ""
    arr = pa.array(tokens, str_type)
    assert ascii_token_hashes(arr).tolist() == _fnv1a_reference(tokens)
    # a sliced array starts at a non-zero offset into the buffers
    assert ascii_token_hashes(arr.slice(15, 700)).tolist() == _fnv1a_reference(tokens[15:715])
    chunked = pa.chunked_array([arr.slice(0, 10), arr.slice(10)])
    assert ascii_token_hashes(chunked).tolist() == _fnv1a_reference(tokens)


def test_empty_group_keeps_the_wide_sum_schema():
    """``bucketed_wide_sum``'s kernel gives a typed table for a group
    with no rows, with the schema of a full group's output, and sums an
    int32 column to int64 under the same name."""
    from rust_geo_booleanop_ray.stages.pivot import wide_sum

    group = pa.table(
        {
            "k": pa.array([1, 2, 2, 3], pa.int64()),
            "a": pa.array([10, 20, 30, 40], pa.int64()),
        }
    )
    summed = wide_sum(group, "k", ["a"])
    assert summed.to_pydict() == {"k": [1, 2, 3], "a": [10, 50, 40]}
    assert summed.schema == pa.schema([("k", pa.int64()), ("a", pa.int64())])
    assert wide_sum(group.slice(0, 0), "k", ["a"]).schema == summed.schema
    # an int32 wide column sums to int64, with the same names
    narrow = group.set_column(1, "a", group["a"].cast(pa.int32()))
    assert wide_sum(narrow, "k", ["a"]).equals(summed)
    assert wide_sum(narrow.slice(0, 0), "k", ["a"]).schema == summed.schema
