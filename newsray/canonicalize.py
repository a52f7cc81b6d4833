"""URL canonicalization + validity (SURVEY.md §2.2 M4/M11).

The reference canonicalizes in per-site ad-hoc ways: urljoin + drop
query/params/fragment (Nate_Crawler.py:84-86, YNA_Crawler.py:90-92),
``//``-scheme fix, ``./``-relative and hostname-dot normalization for the
aggregator site (Google_Crawler.py:177-191), javascript:/empty href drops
(Daum_crawler.py:88-90, Nate_Crawler.py:79-82). Here it is ONE pure
vectorizable stage producing ``canon_url`` + ``host`` — the engine's dedup
and partition key — applied identically everywhere.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin, urlparse, urlunparse, uses_params

_VALID_SCHEMES = ("http", "https")
# urlparse drops these anywhere in a URL
_DROPPED = str.maketrans("", "", "\t\r\n")


def is_valid_href(href: str | None) -> bool:
    """Drop empty, javascript:, mailto:, fragment-only and other junk hrefs."""
    if not href:
        return False
    h = href.strip()
    if not h or h.startswith("#"):
        return False
    low = h.lower()
    if low.startswith(("javascript:", "mailto:", "data:", "tel:")):
        return False
    return True


def absolutize(href: str, base_url: str) -> str:
    """Relative → absolute; protocol-relative ``//host/p`` → https. The
    crawl's one image rule (``extract.finalize_article``). Tab/CR/LF go
    first, as in ``canonicalize``, so the ``.test./`` rewrite sees the URL
    that urljoin will see; the result is a fixed point."""
    h = href.strip().translate(_DROPPED)
    if h.startswith("//"):
        h = "https:" + h
    # aggregator quirk: './articles/x' and 'host./path' dot-forms
    if h.startswith("./"):
        h = h[1:]  # '/articles/x' — join against base below
    h = h.replace(".test./", ".test/")
    return urljoin(base_url, h)


_FAST_ABS = re.compile(r"^(https?)://([^/?#]+)((?:/[^?#]*)?)(?:[?#].*)?$")
# root-relative path with no scheme/authority and no dot-segments
_FAST_REL = re.compile(r"^/(?!/)[^?#]*(?:[?#].*)?$")
_DOT_SEG = re.compile(r"/\.\.?(?:/|$)")


def _finish(scheme: str, host: str, path: str) -> tuple[str, str, str, str]:
    host = host.lower()
    path = path.rstrip("/") or "/"
    return f"{scheme}://{host}{path}", host, scheme, path


def _canonical_parts(href: str, base_url: str) -> tuple[str, str, str, str]:
    """``(canon_url, host, scheme, path)`` of ``canonicalize``, from one
    parse of the URL. Tab/CR/LF go first, so the rewrites below see the
    URL that urlparse will see."""
    h = href.strip().translate(_DROPPED)
    if h.startswith("//"):
        h = "https:" + h
    elif h.startswith("./"):
        h = h[1:]
    h = h.replace(".test./", ".test/")
    quirk = ";" in h  # urlparse splits off a last segment's ;params
    m = None if quirk else _FAST_ABS.match(h)
    if m is not None:
        path = m.group(3)
        if not _DOT_SEG.search(path):
            return _finish("https", m.group(2), path)
    elif not quirk and _FAST_REL.match(h) and not _DOT_SEG.search(h):
        bm = _FAST_ABS.match(base_url)
        if bm is not None:
            path = h.split("?", 1)[0].split("#", 1)[0]
            return _finish("https", bm.group(2), path)
    # slow path: full RFC 3986 resolution
    absu = urljoin(base_url, h)
    p = urlparse(absu)
    scheme = "https" if p.scheme in _VALID_SCHEMES else p.scheme
    path = p.path or "/"
    while len(path) > 1 and path.endswith("/"):
        path = path[:-1]  # may bare a last segment's ;params: urlparse drops them
        cut = path.find(";", path.rfind("/") + 1) if scheme in uses_params else -1
        if cut < 0:
            break
        path = path[:cut] or "/"
    host = p.netloc.lower()
    canon = urlunparse((scheme, host, path, "", "", ""))
    return canon, host, scheme, path


def canonicalize(href: str, base_url: str) -> tuple[str, str]:
    """Return ``(canon_url, host)``: absolutized, scheme forced to https,
    query/params/fragment stripped, trailing slash trimmed (except root).

    Hot path: absolute http(s) URLs and clean root-relative paths resolve
    with two compiled regexes (~10× urllib); anything else (dot segments,
    path-relative, ``;``, exotic schemes) takes urljoin/urlparse, with
    identical results (property-tested in tests/test_functions.py). The
    result is a fixed point: ``canonicalize(c, b)[0] == c``."""
    return _canonical_parts(href, base_url)[:2]


def canonicalize_batch(
    hrefs: list[str | None], base_urls: list[str]
) -> tuple[list[bool], list[str], list[str], list[str]]:
    """Batch form used inside ``map_batches`` (one Python pass per batch —
    URL parsing is inherently per-string; the stage stays a stateless task).
    Returns ``(valid, canon, hosts, paths)``; a path is what
    ``urlparse(canon).path`` gives, the robots check's input."""
    valid: list[bool] = []
    canon: list[str] = []
    hosts: list[str] = []
    paths: list[str] = []
    for href, base in zip(hrefs, base_urls):
        ok = is_valid_href(href)
        if ok:
            c, h, scheme, path = _canonical_parts(href, base)
            ok = scheme in _VALID_SCHEMES and bool(h)
        valid.append(ok)
        if not ok:
            canon.append("")
            hosts.append("")
            paths.append("")
            continue
        canon.append(c)
        hosts.append(h)
        paths.append(path)
    return valid, canon, hosts, paths
