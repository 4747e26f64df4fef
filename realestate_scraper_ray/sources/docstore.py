"""Row-group-indexed random access over a doc_id-sorted parquet table.

The table-backed fetch substrate (PortalConfig.documents_path) needs a
point lookup ``doc_id -> spans`` inside every fetch actor — the
"actor-side Lance take by doc_id" of SURVEY.md §7.1. Loading the whole
table per worker (the old stand-in) is a dict of the entire portal per
actor: at any real portal size that contradicts the design it stood in
for. This reader keeps per-actor state at O(#row_groups):

- ``open()`` reads ONLY the parquet footer: per-row-group exact
  min/max doc_id statistics (pyarrow writes string stats untruncated
  at URL lengths). If stats are missing or the groups overlap (table
  not sorted by doc_id), ``open`` returns None; the fetch stage then
  refuses the table (``ValueError``). There is no eager fallback:
  ``Portal.write_documents`` writes the sorted layout.
- ``get()`` binary-searches the row-group bounds and decodes just the
  one touched row group, LRU-caching a bounded number of decoded
  groups per actor (crawl batches are host-bucket-contiguous, so a
  batch touches few groups).

``rows_read`` / ``files_read`` mirror the validator shards'
observability hooks: tests assert an actor never reads groups its
batch didn't touch.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict


class DocStore:
    """Point lookups over a doc_id-sorted documents parquet."""

    CACHE_GROUPS = 32

    def __init__(self, path: str, mins: list[str], maxs: list[str],
                 key_col: str, val_col: str):
        self._path = path
        self._mins = mins
        self._maxs = maxs
        self._key = key_col
        self._val = val_col
        self._pf = None  # lazily opened per actor process
        self._cache: "OrderedDict[int, dict]" = OrderedDict()
        self.groups_read: list[int] = []  # observability (tests)

    @classmethod
    def open(cls, path: str, key_col: str = "doc_id",
             val_col: str = "spans") -> "DocStore | None":
        """None when the table is not provably doc_id-sorted with exact
        row-group statistics."""
        import pyarrow.parquet as pq
        md = pq.ParquetFile(path).metadata
        schema = md.schema.to_arrow_schema()
        try:
            ci = schema.names.index(key_col)
        except ValueError:
            return None
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                return None
            mn, mx = st.min, st.max
            if isinstance(mn, bytes):
                mn, mx = mn.decode(), mx.decode()
            mins.append(mn)
            maxs.append(mx)
        for i in range(len(maxs) - 1):
            if maxs[i] >= mins[i + 1]:  # overlap → not sorted/unique
                return None
        return cls(path, mins, maxs, key_col, val_col)

    def _group(self, rg: int) -> dict:
        m = self._cache.get(rg)
        if m is not None:
            self._cache.move_to_end(rg)
            return m
        if self._pf is None:
            import pyarrow.parquet as pq
            self._pf = pq.ParquetFile(self._path)
        self.groups_read.append(rg)
        t = self._pf.read_row_group(rg, columns=[self._key, self._val])
        m = dict(zip(t[self._key].to_pylist(), t[self._val].to_pylist()))
        self._cache[rg] = m
        if len(self._cache) > self.CACHE_GROUPS:
            self._cache.popitem(last=False)
        return m

    def get(self, key: str):
        rg = bisect_left(self._maxs, key)
        if rg >= len(self._maxs) or key < self._mins[rg]:
            return None
        return self._group(rg).get(key)
