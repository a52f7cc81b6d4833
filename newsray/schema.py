"""The Arrow schema of the ``documents`` table, the canonical interleaved
text+media output (BASELINE.json input_hint). The crawl's own wave, frontier
and fetch-log schemas live with the code that writes them in ``pipeline``.

The reference keeps its records implicit (ad-hoc Python dicts, e.g. the
article record built at Naver_Crawler.py:124-131 / FnNews_Crawler.py:84-90);
an explicit ``pyarrow.Schema`` lets the document writers check every block.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),  # canonical URL — the dedup identity
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)
