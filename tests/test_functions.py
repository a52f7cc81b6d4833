"""Unit tests for the scalar layer: text/date/canonicalize functions
(SURVEY.md §5.2 — operator unit tests for M3-M7, M4 variants, M5 cascade)."""

from datetime import datetime

import pytest

from newsray.canonicalize import absolutize, canonicalize, is_valid_href
from newsray.datefns import (
    DEFAULT_NOW,
    day_group_label,
    parse_cascade,
    parse_one,
    within_last_days,
)
from newsray.extract import make_seq, parse_article, parse_listing
from newsray.textfns import (
    KeywordMatcher,
    fuzz_ratio,
    fuzzy_is_dup,
    html_to_text,
    normalize_for_fuzzy,
    tokenize,
)

NOW = datetime(2025, 4, 18, 17, 0, 0)


# -- M5: timestamp cascades --------------------------------------------------


@pytest.mark.parametrize(
    "raw,fmt,expected",
    [
        ("2025.04.18. 09:30:15", "ymd_dot_hms", datetime(2025, 4, 18, 9, 30, 15)),
        ("09:30", "hm_today", datetime(2025, 4, 18, 9, 30)),
        ("2025-04-18 09:30:15", "ymd_dash_hms", datetime(2025, 4, 18, 9, 30, 15)),
        ("2025-04-18 09:30", "ymd_dash_hm", datetime(2025, 4, 18, 9, 30)),
        ("2025.04.18 09:30", "ymd_dot_hm", datetime(2025, 4, 18, 9, 30)),
        ("04-18 09:30", "md_hm_yearinject", datetime(2025, 4, 18, 9, 30)),
        ("2025년 4월 18일", "korean_ymd", datetime(2025, 4, 18)),
        # ISO-Z is UTC; +9h KST shift
        ("2025-04-18T00:30:00Z", "iso_z_kst", datetime(2025, 4, 18, 9, 30)),
        ("기자 아무개 | 2025-04-18 09:30", "pipe_ymd_dash_hm", datetime(2025, 4, 18, 9, 30)),
    ],
)
def test_parse_one_formats(raw, fmt, expected):
    assert parse_one(raw, fmt, NOW) == expected


def test_parse_cascade_first_match_and_junk():
    fmts = ("ymd_dash_hm", "ymd_dot_hm", "md_hm_yearinject")
    assert parse_cascade("2025.04.17 08:00", fmts, NOW) == datetime(2025, 4, 17, 8, 0)
    assert parse_cascade("곧 업데이트", fmts, NOW) is None  # junk → record dropped
    assert parse_cascade(None, fmts, NOW) is None
    # year injection uses now.year
    assert parse_cascade("01-02 03:04", fmts, NOW) == datetime(2025, 1, 2, 3, 4)


def test_recency_window():
    assert within_last_days(datetime(2025, 4, 17, 12, 0), NOW, 2)
    assert not within_last_days(datetime(2025, 4, 16, 12, 0), NOW, 2)


def test_day_group_labels_korean_vs_english():
    ts = datetime(2025, 4, 18, 10, 0)  # a Friday
    assert day_group_label(ts, "korean") == "2025년 04월 18일 금요일"
    assert day_group_label(ts, "english") == "2025년 04월 18일 Friday"


# -- M4: canonicalization variants -------------------------------------------


def test_canonicalize_strips_query_fragment():
    c, h = canonicalize("https://news.nate.test/art/x1?mid=n0100#top", "https://news.nate.test/")
    assert c == "https://news.nate.test/art/x1" and h == "news.nate.test"


def test_canonicalize_protocol_relative_and_relative():
    c, _ = canonicalize("//news.yna.test/art/a2", "https://news.yna.test/sec/nk0")
    assert c == "https://news.yna.test/art/a2"
    c, _ = canonicalize("/art/a3", "https://news.yna.test/sec/nk0")
    assert c == "https://news.yna.test/art/a3"


def test_canonicalize_dot_relative_and_host_dot():
    c, _ = canonicalize("./art/a4", "https://news.google.test/sec/topic0")
    assert c == "https://news.google.test/art/a4"
    c, _ = canonicalize("https://news.google.test./art/a5", "https://news.google.test/")
    assert c == "https://news.google.test/art/a5"


def test_href_validity():
    assert not is_valid_href("javascript:void(0)")
    assert not is_valid_href("")
    assert not is_valid_href(None)
    assert not is_valid_href("#frag")
    assert not is_valid_href("mailto:x@y.z")
    assert is_valid_href("/art/ok")


def test_absolutize_image():
    b = "https://news.voa.test/"
    assert absolutize("/thumb/a.jpg", b) == "https://news.voa.test/thumb/a.jpg"
    # tab/CR/LF go before the aggregator's ".test./" rewrite: one image,
    # one media_ref, however the host dot-form is broken up
    want = "https://news.nate.test/x.jpg"
    for h in (
        "https://news.nate.test./x.jpg", "https://news.nate.test\t./x.jpg",
        "https://news.nate.test.\r/x.jpg", "https://news.nate.test\n./x.jpg",
        " //news.nate.test\t./x.jpg ", "https://news.nate.\ttest./x.jpg",
    ):
        assert absolutize(h, b) == want, repr(h)
    forms = [
        "/thumb/{i}.jpg", "thumb/{i}.jpg", "./thumb/{i}.jpg", "../up/{i}.jpg",
        "//news.yna.test/img/{i}.jpg", "https://news.nate.test./x{i}.jpg",
        "https://news.nate.test\t./x{i}.jpg", "/a\tb/{i}.jpg", "/a\n/./b{i}.jpg",
        " https://news.voa.test/img/{i}.jpg?w=1#f ", "https://a.test/b/../c{i}.jpg",
        "//news.nate.test\r./x/{i}", "x.test./{i}", "x.test.\t/{i}", "/p;v={i}/q.jpg",
    ]
    for i, f in enumerate(forms * 3):
        h = f.format(i=i)
        for base in (b, "https://news.google.test/sec/topic3/p2", "http://X.test/a/b/"):
            a = absolutize(h, base)
            assert not any(c in a for c in "\t\r\n") and ".test./" not in a, (h, a)
            assert absolutize(a, base) == a, (h, base)  # a fixed point


# -- M7: relevance variants ---------------------------------------------------

INC = ["kalpha", "kbeta", "kgamma"]
EXC = ["xbad"]


def test_wordset_variant_word_boundaries():
    m = KeywordMatcher(INC, EXC, "wordset", check_exclude=True)
    assert m.relevant("news kalpha and kbeta today")
    assert not m.relevant("prefixkalpha kbeta only-one-boundary")  # embedded ≠ word
    assert not m.relevant("kalpha kbeta xbad")  # exclude kills


def test_substring_variant_matches_embedded():
    m = KeywordMatcher(INC, EXC, "substring", check_exclude=True)
    assert m.relevant("prefixkalpha suffixkbeta")  # substring counts
    assert not m.relevant("kalpha only one")
    assert not m.relevant("kalpha kbeta abcxbaddef")  # exclude as substring too


def test_regex_variant_boundary_include_wordset_exclude():
    m = KeywordMatcher(INC, EXC, "regex", check_exclude=True)
    assert m.relevant("kalpha, kbeta!")
    assert not m.relevant("prefixkalpha kbeta")
    assert m.relevant("kalpha kbeta embeddedxbad")  # exclude is word-set → embedded ok
    assert not m.relevant("kalpha kbeta xbad")


def test_no_exclude_variant():
    m = KeywordMatcher(INC, EXC, "wordset", check_exclude=False)
    assert m.relevant("kalpha kbeta xbad")  # excludes ignored (voa/gukje/skydaily)


def test_min_floor_on_small_lists():
    m = KeywordMatcher(["konly"], EXC, "substring", check_exclude=True, floor_on_small=True)
    assert m.threshold == 1
    assert m.relevant("konly mention once")


# -- D3: fuzzy dedup ----------------------------------------------------------


def test_fuzz_ratio():
    assert fuzz_ratio("same", "same") == 100
    assert fuzz_ratio("", "") == 100
    assert 0 <= fuzz_ratio("abcdef", "uvwxyz") <= 100
    assert fuzz_ratio("a", "b") == 0


def test_fuzzy_is_dup_order_dependent():
    t1 = "north summit talks continue"
    t2 = "north summit talks continue today"
    mem: list[str] = []
    assert not fuzzy_is_dup(t1, mem, 35)
    mem.append(normalize_for_fuzzy(t1))
    assert fuzzy_is_dup(t2, mem, 35)  # near-dup of accepted


def test_html_to_text_br_and_tags():
    assert html_to_text("line1<br>line2") == "line1\nline2"
    assert html_to_text("<p>hello <b>world</b></p>") == "hello world"


# -- extraction + sequencing --------------------------------------------------


def test_parse_listing_roundtrip():
    html = (
        '<ul><li class="item"><a class="lnk" href="/art/a1">Title One</a>'
        '<span class="tstamp">04-18 09:30</span><img class="thumb" src="/t/a1.jpg"/>'
        '<p class="lead">lead text</p></li>'
        '<li class="item"><a class="lnk" href="javascript:void(0)">ad</a></li></ul>'
    )
    items = parse_listing(html)
    assert len(items) == 2
    assert items[0].href == "/art/a1" and items[0].title == "Title One"
    assert items[0].time_raw == "04-18 09:30" and items[0].img == "/t/a1.jpg"
    assert items[0].lead == "lead text"
    assert items[1].dom_idx == 1


def test_parse_article_roundtrip():
    html = (
        '<h1 class="headline">T</h1><span class="published">2025-04-18 09:30</span>'
        '<div class="article-body"><p>S</p></div><img class="og" src="/i.jpg"/>'
    )
    d = parse_article(html)
    assert d == {"title": "T", "time_raw": "2025-04-18 09:30", "summary": "S", "img": "/i.jpg"}


def test_make_seq_total_order():
    # site → depth → seed → page → dom, strictly increasing along each axis
    assert make_seq(0, 0, 0, 1, 0) < make_seq(0, 0, 0, 1, 1)
    assert make_seq(0, 0, 0, 1, 99) < make_seq(0, 0, 0, 2, 0)
    assert make_seq(0, 0, 0, 99, 5) < make_seq(0, 0, 1, 1, 0)
    assert make_seq(0, 0, 99, 1, 0) < make_seq(0, 1, 0, 1, 0)
    assert make_seq(0, 255, 0, 1, 0) < make_seq(1, 0, 0, 1, 0)


def test_canonicalize_fast_path_equals_rfc_resolution():
    """The regex fast path must agree with full urljoin/urlparse resolution
    on every href shape the corpus (and reasonable webs) produce."""
    import random

    from urllib.parse import urljoin, urlparse, urlunparse

    def slow(href, base):
        # urlparse drops tab/CR/LF: so does the reference, before the rewrites
        h = "".join(c for c in href.strip() if c not in "\t\r\n")
        if h.startswith("//"):
            h = "https:" + h
        elif h.startswith("./"):
            h = h[1:]
        h = h.replace(".test./", ".test/")
        absu = urljoin(base, h)
        p = urlparse(absu)
        scheme = "https" if p.scheme in ("http", "https") else p.scheme
        path = p.path.rstrip("/") or "/"
        host = p.netloc.lower()
        return urlunparse((scheme, host, path, "", "", "")), host

    rng = random.Random(7)
    bases = [
        "https://news.nate.test/sec/recent0",
        "https://news.google.test/sec/topic3/p2",
        "http://X.test/a/b/",
    ]
    forms = [
        "/art/{i}", "//news.yna.test/art/{i}", "./art/{i}",
        "https://news.voa.test/art/{i}?utm=1#x", "http://news.daum.test/art/{i}/",
        "art/{i}", "../up/{i}", "/a/./b/{i}", "/priv/art/{i}",
        "HTTPS://News.Test/art/{i}",
        # ;params and tab forms: urlparse drops them, so must the fast path
        "/art/x;sid={i}", "x;sid={i}", "/art/./x;sid={i}", "/art;v={i}/x",
        "https://news.voa.test/art/{i};jsessionid=9?q=1", "/a\tb/{i}",
        # a run of trailing slashes, and a tab inside the aggregator's
        # "host./" dot-form
        "/a{i}//", "/a/{i}///", "https://news.nate.test\t./x{i}", "//news.nate.test\r./x/{i}//",
    ]
    for i in range(500):
        h = rng.choice(forms).format(i=i)
        for b in bases:
            c = canonicalize(h, b)
            assert c == slow(h, b), (h, b)
            assert canonicalize(c[0], b) == c, (h, b)  # one page, one canonical URL
    # one page, one canonical URL: every spelling drops the last ;params
    b = "https://news.nate.test/art/y"
    for h in ("/art/x;sid=1", "x;sid=1", "/art/./x;sid=1", "/art/x;sid=1/"):
        assert canonicalize(h, b) == ("https://news.nate.test/art/x", "news.nate.test"), h


def test_canonicalize_batch_path_is_urlparse_path():
    """The batch gate parses each candidate once: its validity and robots
    path must equal re-parsing the canonical URL with urlparse, also where
    urlparse drops a last segment's ;params or a tab/CR/LF, and the
    canonical URL must canonicalize to itself."""
    import random

    from urllib.parse import urlparse

    from newsray.canonicalize import canonicalize_batch, is_valid_href

    rng = random.Random(11)
    forms = [
        "/art/{i}", "//news.yna.test/art/{i}", "./art/{i}", "art/{i}/",
        "https://news.voa.test/art/{i}?utm=1#x", "http://news.daum.test/art/{i}/",
        "../up/{i}", "/a/./b/{i}", "/priv/art/{i}", "HTTPS://News.Test/art/{i}",
        "/art;v={i}/x", "/art/x;jsessionid={i}", "/art/x;s={i}/", "/a\tb/{i}",
        "https://news.nate.test/a\nb;p/{i}", "../x;y{i}", "ftp://h.test/{i}",
        "javascript:void({i})", "#top{i}", "", "mailto:a{i}@b.c", "//",
    ]
    bases = ["https://news.nate.test/sec/recent0", "http://X.test/a/b/", "ftp://f.test/d/"]
    hrefs, bs = [], []
    for i in range(300):
        hrefs.append(rng.choice(forms).format(i=i))
        bs.append(rng.choice(bases))
    hrefs.append(None)
    bs.append(bases[0])
    valid, canon, hosts, paths = canonicalize_batch(hrefs, bs)
    for href, b, ok, c, h, path in zip(hrefs, bs, valid, canon, hosts, paths):
        if not is_valid_href(href):
            assert not ok, href
            continue
        want_c, want_h = canonicalize(href, b)
        p = urlparse(want_c)
        want_ok = p.scheme in ("http", "https") and bool(want_h)
        assert ok == want_ok, (href, b)
        if ok:
            assert (c, h, path) == (want_c, want_h, p.path), (href, b)
            assert canonicalize(c, b) == (c, h), (href, b)  # a fixed point
    assert any(";" in c for c in canon)  # ;-bearing canonical paths were checked
    # an opaque path ending in '/' (no authority) is invalid, never an error
    opaque = ["http:x/", "foo:bar/", "x:y;p/", "http:x;p/", "ftp:a;b/;c/", "news:a/"]
    valid, _, _, _ = canonicalize_batch(opaque, [bases[0]] * len(opaque))
    assert valid == [False] * len(opaque)


def _prefix_join(sources, ids, shs, nb):
    """ngram_jaccard_by_source's plan without Ray: `_prefix_rows` of
    explicit shingle lists, split into ``nb`` token buckets as the
    exchange splits them, `_prefix_pairs` on each bucket."""
    import pyarrow as pa

    from newsray.dedup_ops import _prefix_pairs, _prefix_rows
    from newsray.tabular import key_buckets

    if not isinstance(shs, pa.ListArray):
        shs = pa.array(shs, pa.list_(pa.int64()))
    rows = _prefix_rows(pa.array(sources, pa.string()), pa.array(ids, pa.int64()), shs)
    bucket = key_buckets([rows["tok"]], nb).to_numpy()
    out = []
    for k in range(nb):
        part = rows.filter(pa.array(bucket == k))
        if part.num_rows:
            out += list(_prefix_pairs(part.to_pandas()).itertuples(index=False, name=None))
    return out


@pytest.mark.parametrize("nb", [1, 2, 8])
def test_prefix_filter_jaccard_is_exact(nb):
    """The prefix filter of ngram_jaccard_by_source finds every pair at
    Jaccard ≥ 0.35 exactly once: at exactly the threshold (|r| = 7, s = r
    plus 13 tokens sorting before r's, which a prefix one token short
    misses), for a pair sharing many prefix tokens, and on a
    duplicate-heavy corpus over three sources (one null) against brute
    force per source."""
    import numpy as np
    import pyarrow as pa

    from newsray.dedup_ops import _shingle_lists, _shingles

    r = list(range(100, 107))
    assert _prefix_join(["x", "x"], [1, 2], [r, list(range(1, 14)) + r], nb) == [(1, 2, 0.35)]
    same = list(range(40))  # identical sets: all 27 prefix tokens shared
    got = _prefix_join(["x", "x", "y"], [5, 3, 4], [same, same, same], nb)
    assert got == [(3, 5, 1.0)]

    rng = np.random.default_rng(7)
    base = [" ".join(f"w{rng.integers(0, 30)}" for _ in range(25)) for _ in range(12)]
    texts = [base[i % 12] + (f" extra{i}" if i % 3 == 0 else "") for i in range(40)]
    ids = [100 + i for i in range(40)]
    sources = [("a", "b", None)[i % 4 % 3] for i in range(40)]
    want = []
    for i in range(40):
        for j in range(i + 1, 40):
            if sources[i] == sources[j]:
                x, y = _shingles(texts[i]), _shingles(texts[j])
                jac = len(x & y) / len(x | y)
                if jac >= 0.35:
                    want.append((ids[i], ids[j], float(np.round(jac, 4))))
    assert len(want) > 40 and set(sources) == {"a", "b", None}
    got = _prefix_join(sources, ids, _shingle_lists(pa.array(texts)), nb)
    assert sorted(got) == sorted(want)  # sorted lists: a pair found twice fails


def _window_texts():
    """Texts for the token-window tests: empty and space-only texts,
    leading, trailing and double spaces, multi-byte tokens."""
    import random

    rng = random.Random(11)
    words = ["a", "bb", "", "한국", "어", "ÿé", "x" * 9, "the"]
    return ["", " ", "  ", "a ", " a", "a  b", "한국 어", "x"] + [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, 90))) for _ in range(300)
    ]


@pytest.mark.parametrize("k,stride", [(1, 1), (2, 1), (3, 1), (8, 1), (16, 1), (64, 32)])
def test_token_windows_covering_rule(k, stride):
    """`tabular.token_windows` cuts each row into the windows
    ``' '.join(t.split(' ')[s:s+k])`` for s = 0, stride, … up to the first
    window that reaches the row's last token, on a plain, a chunked and a
    sliced (non-zero offset) column; byte slices and gathered strings
    agree."""
    import pyarrow as pa

    from newsray.tabular import token_windows

    texts = _window_texts()

    def want(t):
        toks, out, s = t.split(" "), [], 0
        while True:
            out.append(" ".join(toks[s : s + k]))
            if s + k >= len(toks):
                return out
            s += stride

    for col in (
        pa.array(texts),
        pa.chunked_array([texts[:50], texts[50:]]),
        pa.array(["pad pad", "x"] + texts).slice(2),
    ):
        w = token_windows(col, k, stride)
        got = w.strings().to_pylist()
        assert [s.decode() for s in w.slices()] == got
        per_row = [[] for _ in texts]
        for r, s in zip(w.row.tolist(), got):
            per_row[r].append(s)
        assert per_row == [want(t) for t in texts]
        assert w.n.tolist() == [len(t.split(" ")) for t in texts]


def test_batch_hashes_equal_scalar_references():
    """The batch shingle sets, SimHash signatures (bit 63 included) and md5
    grams built on `token_windows` equal the per-document references."""
    import hashlib

    import pyarrow as pa

    from newsray.dedup_ops import _shingle_lists, _shingles, _simhash64, _simhash_sigs
    from newsray.textan import md5_grams

    texts = _window_texts()
    col = pa.array(["pad"] + texts).slice(1)
    assert _shingle_lists(col).to_pylist() == [sorted(_shingles(t)) for t in texts]
    sigs = _simhash_sigs(col)
    assert sigs.dtype.name == "uint64"
    assert [int(s) for s in sigs] == [_simhash64(t) for t in texts]
    assert any(int(s) >> 63 for s in sigs), "no signature exercises bit 63"
    for k in (8, 16):
        row, g, gk = md5_grams(col, k)
        want = [
            (i, hashlib.md5(" ".join(toks[j : j + k]).encode()).hexdigest())
            for i, toks in enumerate(t.split(" ") for t in texts)
            for j in range(len(toks) - k + 1)
        ]
        assert list(zip(row.tolist(), g.to_pylist())) == want
        assert gk.to_pylist() == [int(h[:8], 16) for _, h in want]


# -- round-3 additions: selector-engine extensions + zero-copy embeddings ----


def test_htmlsel_attr_ops_and_of_type_pseudos():
    from newsray.htmlsel import parse_html, select, select_one

    root = parse_html(
        "<div><span class='byline'><em>kim</em><em>id9</em><em>2025.04.18 09:30</em>"
        "</span><p class='perex news-perex'>lead</p>"
        "<span class='media_end_head ARTICLE_DATE_TIME' data-d='x'>t</span></div>"
    )
    assert select_one(root, "span.byline em:nth-of-type(3)").text == "2025.04.18 09:30"
    assert select_one(root, "span.byline em:first-of-type").text == "kim"
    assert select_one(root, "span.byline em:last-of-type").text == "2025.04.18 09:30"
    assert select_one(root, 'p[class*="perex"]').text == "lead"
    assert select_one(root, 'span[class*="ARTICLE_DATE_TIME"]').get("data-d") == "x"
    assert select_one(root, 'p[class^="perex"]') is not None
    assert select_one(root, 'p[class$="news-perex"]') is not None
    assert select_one(root, 'p[class*="nope"]') is None
    assert len(select(root, "span.byline em")) == 3


def test_selectorset_title_cascade_and_fallbacks():
    from urllib.parse import quote

    from newsray.extract import SelectorSet, parse_listing_selectors

    sel = SelectorSet(
        item="a.it",
        link="&",
        title="span.t",
        title_fallback_attr="data-title",
        title_unquote=True,
    )
    html = (
        f"<a class='it' href='/1'><span class='t'>제목 하나</span></a>"
        f"<a class='it' href='/2' data-title='{quote('제목 둘')}'>x</a>"
        f"<a class='it' href='/3'>no title anywhere</a>"
    )
    items = parse_listing_selectors(html, sel)
    # third item: configured cascade exhausted → SKIPPED, not a.text
    assert [(i.href, i.title) for i in items] == [("/1", "제목 하나"), ("/2", "제목 둘")]

    # item fallback + title-element fallback (the google shapes)
    sel2 = SelectorSet(item="article", item_fallback="div.N", title_fallback="h3, h4")
    html2 = (
        "<div class='N'><a href='/a'>링크 제목</a></div>"
        "<div class='N'><a href='/b'></a><h4>폴백 제목</h4></div>"
    )
    items2 = parse_listing_selectors(html2, sel2)
    assert [(i.href, i.title) for i in items2] == [("/a", "링크 제목"), ("/b", "폴백 제목")]


def test_emb_matrix_zero_copy_equals_pylist():
    import numpy as np
    import pyarrow as pa

    from newsray.ann import emb_matrix

    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 16)).astype(np.float32)
    col = pa.array([row.tolist() for row in m], pa.list_(pa.float32()))
    got = emb_matrix(col)
    want = np.asarray(col.to_pylist(), dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (40, 16)
    assert np.array_equal(got, want)  # bit-identical to the old path
    # sliced chunked column (offset ≠ 0) stays correct
    t = pa.table({"e": col}).slice(7, 9)
    got2 = emb_matrix(t["e"])
    assert np.array_equal(got2, want[7:16])


def test_substring_relevance_fast_path_exact():
    """The compiled-alternation fast path must be EXACTLY the naive
    per-keyword containment predicate, including overlap-prone keyword sets
    (a findall can hide an overlapped keyword — the boundary case falls
    back to the exact loop)."""
    import random

    from newsray.textfns import KeywordMatcher

    rng = random.Random(0)
    vocab = ["북한", "한미", "미사일", "일본", "본부", "사일로", "a", "ab", "b"]

    def naive(inc, exc, check_exclude, thr, text):
        low = text.lower()
        if sum(1 for k in inc if k.lower() in low) < thr:
            return False
        return not (check_exclude and any(k.lower() in low for k in exc))

    for _ in range(5000):
        inc = rng.sample(vocab, rng.randint(0, 5))
        exc = rng.sample(vocab, rng.randint(0, 3))
        chk = rng.random() < 0.7
        m = KeywordMatcher(inc, exc, variant="substring", check_exclude=chk)
        text = "".join(rng.choice(vocab + [" ", " "]) for _ in range(rng.randint(0, 12)))
        assert m.relevant(text) == naive(inc, exc, chk, m.threshold, text), (
            inc, exc, chk, text)


def test_ann_query_load_is_predicate_pushdown(tmp_path):
    """VERDICT r3 #1: the ANN query loads must read O(queries) rows, never
    the full embeddings table onto the driver. `_load_query_rows` pushes the
    vec_id predicate into the parquet scan — on a 10k-row file it returns
    exactly the query rows, and `_load_query` reproduces the old vector
    bit-for-bit."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from newsray.ann import _load_query, _load_query_rows

    rng = np.random.default_rng(7)
    n, dim = 10_000, 8
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    })
    pq.write_table(tbl, tmp_path / "embeddings.parquet", row_group_size=512)

    rows = _load_query_rows(str(tmp_path), 5)
    assert rows.num_rows == 5  # row-level filter applied, not just row groups
    assert sorted(rows["vec_id"].to_pylist()) == [0, 1, 2, 3, 4]

    q = _load_query(str(tmp_path))
    want = vecs[0].astype(np.float64)
    want /= np.linalg.norm(want)
    assert np.array_equal(q, want)
