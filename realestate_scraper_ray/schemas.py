"""Arrow schemas for the engine's tables.

The document substrate follows BASELINE.json ``input_hint``: a table of
interleaved text + media documents ``(doc_id, spans[])``; span ``offset``
carries the reference's within-page order (photo ``seq`` for images —
/root/reference/scrapper/core/validate.py:53-64).
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct([
    pa.field("kind", pa.string()),       # 'text' | 'link' | 'image'
    pa.field("text", pa.string()),       # kind='text': "field=value" payload
    pa.field("media_ref", pa.string()),  # kind='link'/'image': target URL
    pa.field("offset", pa.int32()),      # position in page; photo seq for images
])

# The crawl substrate (input_hint shape).
DOCUMENTS = pa.schema([
    pa.field("doc_id", pa.string()),     # canonical URL
    pa.field("spans", pa.list_(SPAN_STRUCT)),
])

# Frontier rows (reference urls.csv + explicit order keys,
# /root/reference/scrapper/adapters/base.py:8-12 + FIXTURES.md F3).
FRONTIER = pa.schema([
    pa.field("url", pa.string()),
    pa.field("kind", pa.string()),       # 'pagination' | 'investment' | 'detail'
    pa.field("priority", pa.int32()),    # 0 pagination, 1 investment, 2 detail
    pa.field("source", pa.string()),
    pa.field("region", pa.string()),
    pa.field("page_idx", pa.int32()),    # listing page that discovered it
    pa.field("pos", pa.int32()),         # position within the discovering page
])

# Golden frontier output (reference urls.csv, otodom.py:620-625).
URLS = pa.schema([
    pa.field("offer_url", pa.string()),
    pa.field("offer_id", pa.string()),
    pa.field("page_idx", pa.int32()),
    pa.field("source", pa.string()),
    pa.field("region", pa.string()),
    pa.field("pos", pa.int32()),
])

# photos.csv rows (offer_id, seq, url) — otodom.py:817-825.
PHOTOS = pa.schema([
    pa.field("offer_id", pa.string()),
    pa.field("seq", pa.int32()),
    pa.field("url", pa.string()),
])
