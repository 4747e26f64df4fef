"""End-to-end training-set ASSEMBLY with resumable sharded output.

The mixing/packing half of a training-data pipeline (pipelines/curate.py
is the cleaning half): documents → global-quantile quality gate (keep
n_tokens ≥ the exact 75th percentile, computed from a value-count
histogram — no global sort) → source temperature sampling (τ=2
flattening: keep-probability ∝ n_source^-0.5, decided by a content hash
against a per-source threshold, join-free on the fact side) → seeded
epoch shuffle (md5 order; shard = first hex digit, 16 shards) →
per-shard sequence packing (fixed token bins cut from an intra-shard
running prefix sum — shards pack independently, so packing needs no
cross-shard coordination at any scale).

Resumability mirrors ``pipelines/curate.py``: each shard commits
atomically (tmp + rename) and a re-run SKIPS shards whose file already
exists; ``manifest.json`` (written last) records the stage funnel and
per-shard rows, and its presence marks the output complete. The shard
key is content-derived (md5 of doc_id), so resuming with a different
input sharding produces byte-identical shards.

Each step is one function: ``quantile_cutoff``, ``temperature_sample``
and ``epoch_key`` here, and the packer (``stages/packing.py``). The
SQL-oracled catalog queries (`quality_quantile_filter`,
`source_temperature_sample`, `epoch_shuffle`, `sequence_packing` —
relational.py) call the same functions, so the chain is those queries
composed by construction; the `assembled_training_set` queries() entry
checks the whole chain against one composed DuckDB oracle.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.textstats import md5_fingerprints, token_counts
from ..stages.aggregate import grouped
from ..stages.exchange import read
from ..stages.packing import packed

OUT = pa.schema([("doc_id", pa.int64()), ("source", pa.string()),
                 ("n_tokens", pa.int64()), ("shard", pa.string()),
                 ("pos", pa.int64()), ("pack_bin", pa.int64())])

# 2**24: the range of the six-hex-digit md5 prefix a row draws
_U24 = 16777216.0


def quantile_cutoff(ds: rd.Dataset, col: str, q: float) -> int:
    """The exact ``quantile_disc(col, q)`` of an integer column: the
    sorted element at index floor((N-1)*q), read off the value-count
    histogram (token counts are small ints, so the distinct-value set
    is tiny at any scale) instead of a global sort."""
    hist = (grouped(ds, [col], {"n": (None, "count")})
            .sort_values(col).reset_index(drop=True))
    if hist.empty:
        return 0  # no rows: any cutoff keeps none
    idx = int(np.floor((int(hist["n"].sum()) - 1) * q))
    cum = hist["n"].cumsum().to_numpy()
    return int(hist[col][int(np.searchsorted(cum, idx + 1))])


def temperature_sample(ds: rd.Dataset) -> rd.Dataset:
    """τ=2 source temperature sampling: a row survives iff the first six
    hex digits of md5(text), as an integer, fall below its source's
    threshold min(2^24, floor(0.125·sqrt(N)/sqrt(n_source)·2^24)), so
    the keep probability is ∝ n_source^-0.5 and rare sources are
    up-weighted. Returns ``ds``'s surviving rows without ``text``.
    The threshold table (O(#sources)) rides in each task's closure. The
    double arithmetic has the oracle's association (and 0.125 and 2^24
    are powers of two), so both sides agree bit for bit."""
    counts = grouped(ds, ["source"], {"n_g": (None, "count")})
    n_total = float(counts["n_g"].sum())
    thr = {s: float(np.minimum(_U24, np.floor(
        0.125 * np.sqrt(n_total) / np.sqrt(float(n)) * _U24)))
        for s, n in zip(counts["source"], counts["n_g"])}

    def gate(t: pa.Table) -> pa.Table:
        fp = md5_fingerprints(t["text"].combine_chunks())
        # hex prefix → uniform draw in polars' Rust kernel, not a
        # per-row int(h[:6], 16) loop
        u = (pl.from_arrow(fp).str.slice(0, 6).str.to_integer(base=16)
             .to_numpy().astype(np.float64))
        # per-source threshold via distinct-then-scatter
        srcs = t["source"].combine_chunks()
        uniq = pc.unique(srcs)
        lut = np.array([thr[s] for s in uniq.to_pylist()], np.float64)
        lim = lut[pc.index_in(srcs, value_set=uniq).to_numpy()]
        return t.filter(pa.array(u < lim)).drop_columns(["text"])

    return ds.map_batches(gate, batch_format="pyarrow")


def epoch_key(t: pa.Table, shard_hex_digits: int) -> pa.Table:
    """``t`` plus the seeded epoch-shuffle key ``hv`` = md5('ep1:' ||
    doc_id) and its ``shard``, the first k hex digits (16**k shards)."""
    ids = pc.cast(t["doc_id"], pa.string())
    hv = md5_fingerprints(pc.binary_join_element_wise("ep1", ids, ":"))
    return (t.append_column("hv", hv)
            .append_column("shard", pc.utf8_slice_codeunits(
                hv, 0, shard_hex_digits)))


def assemble_training_set(sf_dir: str, out_dir: str, *,
                          bin_tokens: int = 2048,
                          quantile: float = 0.75,
                          shard_hex_digits: int = 1) -> dict:
    """Run the assembly chain over ``{sf_dir}/documents.parquet`` and
    write packed shards to ``{out_dir}/shard=X/part.parquet``. Returns
    the manifest dict. Shards already on disk are skipped (resume).

    ``shard_hex_digits`` (k) sets the shard count to 16**k: the shard is
    the first k hex digits of the shuffle key, so each per-shard
    ``map_groups`` task holds 16**-k of the gated corpus — size k so one
    shard ~= one comfortable block at the target scale (k=1 → 16 shards
    fits the test corpora; 100 TB wants k≥5). Offsets, positions and
    pack bins are intra-shard, so every choice of k is deterministic
    for that k."""
    os.makedirs(out_dir, exist_ok=True)
    # resume safety: skip-if-exists is only sound against shards written
    # with the SAME parameters. A different shard width leaves stale
    # shard dirs that read_assembled would union with the new ones
    # (silently duplicated corpus); different bin_tokens/quantile would
    # keep old-content shards beside new ones. Refuse loudly instead.
    stale = [d for d in os.listdir(out_dir)
             if d.startswith("shard=")
             and len(d) - len("shard=") != shard_hex_digits]
    if stale:
        raise ValueError(
            f"{out_dir} holds shards of a different width (e.g. "
            f"'{stale[0]}'); resuming with shard_hex_digits="
            f"{shard_hex_digits} would DUPLICATE the corpus in "
            "read_assembled — use a fresh out_dir or remove the stale "
            "shards")
    man_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(man_path):
        with open(man_path) as f:
            prev = json.load(f)
        for key, cur in (("shard_hex_digits", shard_hex_digits),
                         ("bin_tokens", bin_tokens),
                         ("quantile", quantile)):
            if key in prev and prev[key] != cur:
                raise ValueError(
                    f"{out_dir} was assembled with {key}={prev[key]}; "
                    f"re-running with {key}={cur} would mix shard "
                    "contents — use a fresh out_dir")
    ds = read(os.path.join(sf_dir, "documents.parquet"),
              ["doc_id", "text", "source"])

    def tok(t: pa.Table) -> pa.Table:
        tc = token_counts(t["text"].combine_chunks())
        return t.append_column(
            "n_tokens", pc.cast(tc["n_tokens_ws"], pa.int64()))

    scored = ds.map_batches(tok, batch_format="pyarrow").materialize()
    # tok is row-preserving, so the input count reads off the already-
    # materialized blocks — a separate ds.count() would re-run the scan
    n_in = scored.count()
    cutoff = quantile_cutoff(scored, "n_tokens", quantile)
    gated = scored.filter(expr=f"n_tokens >= {cutoff}").materialize()
    n_gated = gated.count()
    keyed = temperature_sample(gated).map_batches(
        epoch_key, fn_args=(shard_hex_digits,), batch_format="pyarrow")

    # each shard's map_groups task packs (shuffle order (hv, doc_id),
    # bins from the intra-shard prefix sum: shards pack independently)
    # AND writes its own file (atomic tmp + rename, skip-if-exists) —
    # the write scales with the shard count, and only (shard, rows,
    # wrote) rows reach the driver
    def pack_and_write(g: pa.Table) -> pa.Table:
        out = packed(g, ["hv", "doc_id"], OUT, "n_tokens", bin_tokens)
        shard = out["shard"][0].as_py()
        return pa.table({"shard": [shard], "rows": [out.num_rows],
                         "wrote": [_write_shard(out_dir, shard, out)]})

    summary = (keyed.groupby("shard")
               .map_groups(pack_and_write, batch_format="pyarrow")
               .to_pandas())
    rows = dict(zip(summary["shard"], summary["rows"].astype(int)))
    written = sorted(summary["shard"][summary["wrote"]])
    skipped = sorted(summary["shard"][~summary["wrote"]])

    manifest = {
        "n_in": int(n_in), "n_after_quality": int(n_gated),
        "n_after_temperature": int(sum(rows.values())),
        "quantile_cutoff_tokens": cutoff, "bin_tokens": bin_tokens,
        "quantile": quantile, "shard_hex_digits": shard_hex_digits,
        "shard_rows": {k: int(v) for k, v in sorted(rows.items())},
        "written": sorted(written), "skipped": sorted(skipped),
    }
    tmp = os.path.join(out_dir, f"manifest.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


def _write_shard(out_dir: str, shard: str, t: pa.Table) -> bool:
    """Atomically write one shard's file from inside its task; returns
    False (skip) when the file already exists (resume)."""
    sdir = os.path.join(out_dir, f"shard={shard}")
    dest = os.path.join(sdir, "part.parquet")
    if os.path.exists(dest):
        return False
    os.makedirs(sdir, exist_ok=True)
    tmp = dest + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(t, tmp)
    os.replace(tmp, dest)
    return True


def read_assembled(out_dir: str) -> rd.Dataset:
    """Streaming reader over the assembled output (all shards)."""
    files = []
    for d in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, d, "part.parquet")
        if d.startswith("shard=") and os.path.exists(p):
            files.append(p)
    return read(files)
