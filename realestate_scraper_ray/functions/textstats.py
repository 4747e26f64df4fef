"""Text-analysis kernels for the training-data pipeline operators:
language-ID, quality scoring, token counting, fingerprinting, shingles,
MinHash / SimHash signatures.

All batch functions are vectorized (polars / numpy / pandas string
kernels) and deterministic (seeded, process-independent hashing — sha1 /
splitmix-style mixing, never Python ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as pl
import pyarrow as pa


def _to_series(texts) -> pl.Series:
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(texts)
    else:
        s = pl.from_arrow(pa.array(texts, pa.string()))
    return s if isinstance(s, pl.Series) else s.to_series()


# ---------------------------------------------------------------------------
# token counting — whitespace tokens + a BPE-ish word/number/punct regex
# ---------------------------------------------------------------------------

_BPE_RE = r"[A-Za-zÀ-ɏ]+|\d+|[^\sA-Za-zÀ-ɏ\d]"


def token_counts(texts) -> pa.Table:
    """Returns (n_tokens_ws, n_tokens_bpe) per text, vectorized."""
    s = _to_series(texts).alias("t")
    out = s.to_frame().select(
        pl.col("t").str.strip_chars().str.count_matches(r"\S+")
        .cast(pl.Int64).alias("n_tokens_ws"),
        pl.col("t").str.count_matches(_BPE_RE).cast(pl.Int64).alias("n_tokens_bpe"),
    )
    return out.to_arrow()


# ---------------------------------------------------------------------------
# quality scoring — length / punctuation / digit / word-length signals
# (the shape of reference-style completeness heuristics, applied to text)
# ---------------------------------------------------------------------------


def quality_stats(texts) -> pa.Table:
    s = _to_series(texts).alias("t")
    out = s.to_frame().select(
        pl.col("t").str.len_chars().cast(pl.Int64).alias("n_chars_m"),
        pl.col("t").str.count_matches(r"[.,!?;:]").cast(pl.Int64).alias("n_punct"),
        pl.col("t").str.count_matches(r"\d").cast(pl.Int64).alias("n_digits"),
        pl.col("t").str.strip_chars().str.count_matches(r"\S+")
        .cast(pl.Int64).alias("n_words"),
    )
    t = out.with_columns(
        (pl.col("n_punct") / pl.col("n_chars_m")).alias("punct_ratio"),
        (pl.col("n_digits") / pl.col("n_chars_m")).alias("digit_ratio"),
        ((pl.col("n_chars_m") - pl.col("n_words") + 1) / pl.col("n_words"))
        .alias("avg_word_len"),
    )
    return t.to_arrow()


# ---------------------------------------------------------------------------
# language ID — stopword-profile heuristic over a fixed tiny lexicon.
# (An n-gram/stopword scorer in the spirit of public langid approaches;
# deterministic, no model download.)
# ---------------------------------------------------------------------------

_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to in is you that it he was for on are as with his they at be this have from or one had by word but not what all were we when your can said there use an each which she do how their if".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf für ist im dem nicht ein eine als auch es an werden aus er hat dass sie nach wird bei einer um am sind noch wie einem über".split()),
    "fr": frozenset("de la le et les des en un du une que est pour qui dans a par plus pas au sur ne se ce il sont la vous avec son ils aux comme mais ou nous".split()),
    "es": frozenset("de la que el en y a los del se las por un para con no una su al lo como mas pero sus le ya o este si porque esta entre cuando muy sin sobre".split()),
    "pl": frozenset("w i z na do nie się jest to że o jak po co tak za od ale przez przy czy dla ma być przed tylko już".split()),
}
_LANGS = tuple(_STOPWORDS)


def lang_id(texts) -> pa.Array:
    """Predicted language code per text ('und' when nothing matches).
    Vectorized: one tokenize pass, then a per-language Rust-side
    membership count (polars list.eval); argmax with first-wins ties —
    identical semantics to the scalar loop it replaced."""
    s = _to_series(texts).alias("t")
    df = s.to_frame().select(
        pl.col("t").str.to_lowercase().str.extract_all(r"[a-zà-ÿąćęłńóśźż]+")
        .alias("w"))
    counts = df.select([
        pl.col("w").list.eval(pl.element().is_in(sorted(_STOPWORDS[lang])))
        .list.sum().fill_null(0).alias(lang)
        for lang in _LANGS
    ]).to_numpy()  # (n, n_langs) int matrix
    best = counts.argmax(axis=1)  # first max wins (np.argmax semantics)
    langs = np.array(_LANGS)
    preds = np.where(counts.max(axis=1) > 0, langs[best], "und")
    return pa.array(preds.tolist(), pa.string())


# ---------------------------------------------------------------------------
# fingerprinting — md5 (SQL-checkable) + 64-bit rolling polynomial hash
# ---------------------------------------------------------------------------


def md5_fingerprints(texts) -> pa.Array:
    s = _to_series(texts)
    return pa.array([hashlib.md5(t.encode()).hexdigest() if t is not None else None
                     for t in s.to_list()], pa.string())


_POW_CACHE: dict[int, np.ndarray] = {}


def _powers(base: int, n: int) -> np.ndarray:
    """[base^(n-1), ..., base^1, base^0] mod 2^64 (wrapping uint64)."""
    cached = _POW_CACHE.get(base)
    if cached is None or len(cached) < n:
        size = max(n, 4096)
        p = np.empty(size, dtype=np.uint64)
        p[0] = 1
        with np.errstate(over="ignore"):
            b = np.uint64(base)
            for i in range(1, size):
                p[i] = p[i - 1] * b
        _POW_CACHE[base] = cached = p
    return cached[:n][::-1]


def rolling_hash64(texts, base: int = 1_000_003) -> pa.Array:
    """Deterministic 64-bit polynomial rolling hash of the whole text:
    h = seed*base^n + Σ byte_i * base^(n-1-i), all mod 2^64. Vectorized
    per text (one dot product over the byte array; uint64 wraparound is
    the modulus)."""
    s = _to_series(texts)
    out = np.empty(len(s), dtype=np.uint64)
    seed = np.uint64(1469598103934665603)
    with np.errstate(over="ignore"):
        for i, t in enumerate(s.to_list()):
            if not t:
                out[i] = seed
                continue
            data = np.frombuffer(t.encode(), dtype=np.uint8).astype(np.uint64)
            pw = _powers(base, len(data) + 1)
            out[i] = seed * pw[0] + np.multiply(data, pw[1:]).sum(dtype=np.uint64)
    return pa.array(out)


# ---------------------------------------------------------------------------
# shingling + MinHash + SimHash (Broder '97 / Charikar '02, public algs)
# ---------------------------------------------------------------------------


# Per-process cache of sha1-derived word hashes. Natural-language
# vocabulary is tiny relative to token count (Heaps' law), so nearly all
# lookups hit; the expensive sha1 runs once per distinct word per worker.
_WORD_HASH_CACHE: dict[str, int] = {}
_WORD_HASH_CACHE_MAX = 4_000_000  # ~0.5 GB ceiling per worker process

_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)


def _word_hash_array(words: list[str]) -> np.ndarray:
    cache = _WORD_HASH_CACHE
    out = np.empty(len(words), dtype=np.uint64)
    sha1 = hashlib.sha1
    for i, w in enumerate(words):
        v = cache.get(w)
        if v is None:
            if len(cache) >= _WORD_HASH_CACHE_MAX:
                cache.clear()
            v = cache[w] = int.from_bytes(sha1(w.encode()).digest()[:8], "big")
        out[i] = v
    return out


def _hash_tokens_matrix(texts: list[str], shingle_k: int) -> list[np.ndarray]:
    """Per text: uint64 hashes of its k-word shingles.

    Shingle hash = ordered FNV-1a-style fold over the sha1-based hashes
    of its k words — deterministic across processes/machines (sha1 per
    distinct word, cached) and vectorized per document: one
    ``sliding_window_view`` + k wrapping vector ops instead of a Python
    sha1 call per shingle."""
    out = []
    with np.errstate(over="ignore"):  # wrapping uint64 is the modulus
        for t in texts:
            words = t.split() if t else []
            if not words:
                out.append(np.empty(0, dtype=np.uint64))
                continue
            wh = _word_hash_array(words)
            if len(wh) < shingle_k:
                windows = wh[None, :]
            else:
                windows = np.lib.stride_tricks.sliding_window_view(wh, shingle_k)
            h = np.full(len(windows), _FNV_OFFSET, dtype=np.uint64)
            for c in range(windows.shape[1]):
                h = (h ^ windows[:, c]) * _FNV_PRIME
            out.append(h)
    return out


_MIX_A = np.uint64(0x9E3779B97F4A7C15)


def minhash_signatures(texts, num_perm: int = 64, shingle_k: int = 3) -> np.ndarray:
    """(n, num_perm) uint64 MinHash signatures (empty text → all-max).
    One broadcast mix per document ((num_perm, n_shingles) in a single
    vector op) instead of a per-permutation Python loop."""
    s = _to_series(texts).to_list()
    shingle_hashes = _hash_tokens_matrix(s, shingle_k)
    sig = np.full((len(s), num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    seeds = np.arange(num_perm, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        for i, h in enumerate(shingle_hashes):
            if h.size == 0:
                continue
            x = h[None, :] + seeds * _MIX_A
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            sig[i] = (x ^ (x >> np.uint64(31))).min(axis=1)
    return sig


def simhash64(texts, shingle_k: int = 2) -> np.ndarray:
    """64-bit SimHash over k-word shingles."""
    s = _to_series(texts).to_list()
    shingle_hashes = _hash_tokens_matrix(s, shingle_k)
    out = np.zeros(len(s), dtype=np.uint64)
    bits = np.arange(64, dtype=np.uint64)
    for i, h in enumerate(shingle_hashes):
        if h.size == 0:
            continue
        # (n_shingles, 64) bit matrix → per-bit majority vote
        m = ((h[:, None] >> bits[None, :]) & np.uint64(1)).astype(np.int64)
        v = m.sum(axis=0) * 2 - h.size
        out[i] = ((v > 0).astype(np.uint64) << bits).sum(dtype=np.uint64)
    return out


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def word_shingle_set(text: str, k: int = 3) -> set[str]:
    words = text.split() if text else []
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


def fnv1a64(arr) -> np.ndarray:
    """Vectorized FNV-1a (64-bit) over each string's UTF-8 bytes.

    Pure uint64 numpy arithmetic over the Arrow flat byte buffer —
    version-stable across library upgrades (the guarantee a
    polars/xxh3 kernel cannot make), which is what keys persisted in
    checkpoints need. The loop is over BYTE POSITIONS (bounded by the
    longest string); every iteration processes the whole still-active
    column slice, so Python overhead is O(max_len), not O(rows).
    """
    if isinstance(arr, (list, np.ndarray)):
        arr = pa.array(arr, pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    a = arr.cast(pa.large_binary())
    n = len(a)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    offs = np.frombuffer(a.buffers()[1], dtype=np.int64)[
        a.offset:a.offset + n + 1]
    data = np.frombuffer(a.buffers()[2], dtype=np.uint8)
    starts, lens = offs[:-1], offs[1:] - offs[:-1]
    h = np.full(n, 0xcbf29ce484222325, dtype=np.uint64)
    prime = np.uint64(1099511628211)
    max_len = int(lens.max())
    with np.errstate(over="ignore"):
        for j in range(max_len):
            idx = np.nonzero(lens > j)[0]
            b = data[starts[idx] + j].astype(np.uint64)
            h[idx] = (h[idx] ^ b) * prime
    return h


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", Table A1) —
# the published document-level quality filter, as integer counters so
# the pass decision is exact (no float ratios to hash-mismatch).
# ---------------------------------------------------------------------------

GOPHER_STOP_WORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_stats(texts) -> pa.Table:
    """Per-text counters for the Gopher rules, one vectorized polars
    pass. Patterns restrict to the RE2 ∩ rust-regex common subset
    ((?m), \\pL — NOT \\b, whose word-boundary semantics differ between
    the two engines) so the DuckDB oracle reproduces every count.

    - n_words          whitespace-delimited tokens (\\S+ runs)
    - n_nonws_chars    total chars across words (mean word length =
                       n_nonws_chars / n_words)
    - n_alpha_words    words containing at least one letter (\\pL)
    - n_lines          newline count + 1
    - n_bullet_lines   lines whose first non-blank char is -, * or •
    - n_ellipsis_lines lines ending with ... or …
    - n_symbols        '#' plus '…' occurrences
    - n_stop_hits      how many of the 8 Gopher stop words appear
    """
    s = _to_series(texts).alias("t")
    low = pl.col("t").str.to_lowercase()
    stop_exprs = [
        low.str.contains(rf"(?:^|[^\pL]){w}(?:[^\pL]|$)")
        .cast(pl.Int64).alias(f"_s{i}")
        for i, w in enumerate(GOPHER_STOP_WORDS)
    ]
    df = s.to_frame().select(
        pl.col("t").str.count_matches(r"\S+").cast(pl.Int64)
        .alias("n_words"),
        pl.col("t").str.count_matches(r"\S").cast(pl.Int64)
        .alias("n_nonws_chars"),
        pl.col("t").str.count_matches(r"\S*\pL\S*").cast(pl.Int64)
        .alias("n_alpha_words"),
        (pl.col("t").str.count_matches(r"\n").cast(pl.Int64) + 1)
        .alias("n_lines"),
        pl.col("t").str.count_matches(r"(?m)^[ \t]*[-*•]").cast(pl.Int64)
        .alias("n_bullet_lines"),
        pl.col("t").str.count_matches(r"(?m)(\.\.\.|…)[ \t]*$")
        .cast(pl.Int64).alias("n_ellipsis_lines"),
        (pl.col("t").str.count_matches(r"#")
         + pl.col("t").str.count_matches(r"…")).cast(pl.Int64)
        .alias("n_symbols"),
        *stop_exprs,
    ).with_columns(
        sum(pl.col(f"_s{i}") for i in range(len(GOPHER_STOP_WORDS)))
        .alias("n_stop_hits"),
    ).drop([f"_s{i}" for i in range(len(GOPHER_STOP_WORDS))])
    return df.to_arrow()


def gopher_pass(stats: pa.Table) -> pa.Array:
    """The Gopher keep decision from integer counters (ratios as exact
    cross-multiplications): 50 ≤ words ≤ 100k; mean word length in
    [3, 10]; symbol/word ≤ 0.1; bullet lines ≤ 90 %; ellipsis lines
    ≤ 30 %; ≥ 80 % alphabetic words; ≥ 2 stop words."""
    c = {n: np.asarray(stats[n].combine_chunks()) for n in
         ("n_words", "n_nonws_chars", "n_alpha_words", "n_lines",
          "n_bullet_lines", "n_ellipsis_lines", "n_symbols",
          "n_stop_hits")}
    w = c["n_words"]
    ok = ((w >= 50) & (w <= 100_000)
          & (3 * w <= c["n_nonws_chars"]) & (c["n_nonws_chars"] <= 10 * w)
          & (10 * c["n_symbols"] <= w)
          & (10 * c["n_bullet_lines"] <= 9 * c["n_lines"])
          & (10 * c["n_ellipsis_lines"] <= 3 * c["n_lines"])
          & (5 * c["n_alpha_words"] >= 4 * w)
          & (c["n_stop_hits"] >= 2))
    return pa.array(ok)


# ---------------------------------------------------------------------------
# unicode/whitespace text normalization (the standard first stage of a
# web-text pipeline: NFC composition + whitespace canonicalization)
# ---------------------------------------------------------------------------

def normalize_text(texts) -> pa.Array:
    """NFC-normalize, collapse ASCII whitespace runs to one space, trim
    edge spaces. NFC runs through polars (this build's
    pc.utf8_normalize is a no-op on decomposed input); the whitespace
    collapse deliberately uses pyarrow's RE2 `\\s+` — the same engine
    and (ASCII) semantics as a DuckDB `regexp_replace` oracle, where
    rust-regex's Unicode `\\s` would also eat U+00A0 and diverge."""
    import pyarrow.compute as pc
    s = _to_series(texts)
    nfc = s.str.normalize("NFC").to_arrow().cast(pa.string())
    collapsed = pc.replace_substring_regex(nfc, pattern=r"\s+",
                                           replacement=" ")
    return pc.utf8_trim(collapsed, characters=" ")
