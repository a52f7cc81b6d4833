"""String functions: keyword relevance, fuzzy title similarity, HTML-ish
text cleanup (SURVEY.md §2.2 M3/M7/M8, §2.8).

Shared verbatim by the Ray pipeline and the sequential oracle so conformance
of the scalar layer holds by construction.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"\b\w+\b", re.UNICODE)
_WS_RE = re.compile(r"\s+")
_TAG_RE = re.compile(r"<[^>]+>")
_BR_RE = re.compile(r"<br\s*/?>", re.IGNORECASE)


def tokenize(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def collapse_ws(text: str) -> str:
    return _WS_RE.sub("", text)


def html_to_text(fragment: str) -> str:
    """``<br>`` → newline, strip remaining tags, trim (summary cleanup)."""
    return _TAG_RE.sub("", _BR_RE.sub("\n", fragment)).strip()


class KeywordMatcher:
    """≥K-include-matches AND (optionally) no-exclude predicate, in the three
    matching semantics the reference sites use (SURVEY M7):

    * ``wordset``  — keyword ∈ word-boundary token set of the text
      (FnNews_Crawler.py:36-40, FNToday_Crawler.py:51-55, Nate_Crawler.py:60-71);
    * ``substring``— raw substring containment, matches inside words too
      (Daum_crawler.py:75-85; Google_Crawler.py:65-82 adds the
      ``min(2, len(include))`` floor → ``floor_on_small``);
    * ``regex``    — word-boundary regex search for includes, token-set
      membership for excludes (Naver_Crawler.py:50-56, YNA_Crawler.py:60-68);
    * no-exclude sites pass ``check_exclude=False``
      (VOA_Crawler.py:45-51, Gukje_Crawler.py:45-49, SkyDaily_Crawler.py:49-55).

    Compiled once (actor ``__init__`` / closure capture — the keyword config
    is broadcast, never re-shipped per batch).
    """

    def __init__(
        self,
        includes: list[str],
        excludes: list[str],
        variant: str,
        check_exclude: bool,
        min_matches: int = 2,
        floor_on_small: bool = False,
    ) -> None:
        self.includes = list(includes)
        self.excludes = list(excludes)
        self.variant = variant
        self.check_exclude = check_exclude
        self.threshold = (
            min(min_matches, len(self.includes)) if floor_on_small else min_matches
        )
        self._inc_lower = [k.lower() for k in self.includes]
        self._exc_lower = [k.lower() for k in self.excludes]
        self._inc_set = set(self._inc_lower)
        self._exc_set = set(self._exc_lower)
        if variant == "regex":
            alt = "|".join(re.escape(k) for k in sorted(self._inc_lower))
            self._inc_re = re.compile(rf"\b(?:{alt})\b") if alt else None
        else:
            self._inc_re = None
        # substring fast path: ONE compiled alternation scan replaces the
        # 486-keyword `k in text` loop for almost every title (measured
        # ~18% of the bench wave-0 CPU). Exactness is preserved: a
        # non-overlapping findall only ever finds keywords that ARE
        # present, so ≥threshold distinct hits proves relevance, zero hits
        # proves count 0, and only the rare 1-distinct-hit boundary (an
        # overlap can hide a second keyword from the linear scan) falls
        # back to the exact per-keyword loop. Exclusion needs existence
        # only, which one `search` decides exactly. Longest-first
        # alternation so shared-prefix keywords resolve to the longer hit.
        if variant == "substring":
            inc_sorted = sorted(self._inc_lower, key=len, reverse=True)
            exc_sorted = sorted(self._exc_lower, key=len, reverse=True)
            self._inc_any = (
                re.compile("|".join(re.escape(k) for k in inc_sorted))
                if inc_sorted
                else None
            )
            self._exc_any = (
                re.compile("|".join(re.escape(k) for k in exc_sorted))
                if exc_sorted
                else None
            )
        else:
            self._inc_any = self._exc_any = None

    def include_count(self, text: str) -> int:
        low = text.lower()
        if self.variant == "wordset":
            return len(self._inc_set.intersection(tokenize(low)))
        if self.variant == "substring":
            # per-keyword containment scan; at 10^10 scale this becomes an
            # Aho-Corasick automaton held by the extract actor pool
            return sum(1 for k in self._inc_lower if k in low)
        if self.variant == "regex":
            if self._inc_re is None:
                return 0
            return len(set(self._inc_re.findall(low)))
        raise KeyError(f"unknown relevance variant {self.variant!r}")

    def has_exclude(self, text: str) -> bool:
        if not self.check_exclude:
            return False
        low = text.lower()
        if self.variant == "substring":
            return any(k in low for k in self._exc_lower)
        # wordset + regex variants both use token-set membership for excludes
        return bool(self._exc_set.intersection(tokenize(low)))

    def relevant(self, text: str) -> bool:
        if self.variant == "substring":
            low = text.lower()
            hits = self._inc_any.findall(low) if self._inc_any else []
            if len(set(hits)) >= self.threshold:
                ok = True
            elif not hits:
                ok = self.threshold <= 0  # no keyword present at all
            else:  # boundary: overlaps can hide keywords from findall
                ok = sum(1 for k in self._inc_lower if k in low) >= self.threshold
            if not ok:
                return False
            if not self.check_exclude:
                return True
            return self._exc_any is None or self._exc_any.search(low) is None
        return self.include_count(text) >= self.threshold and not self.has_exclude(text)

    def relevant_batch(self, texts: list[str]) -> list[bool]:
        """Batch form of ``relevant``. Measured: CPython's C-level substring
        scan (``k in s`` over short titles) beats a per-keyword
        pyarrow ``match_substring`` column kernel by ~4× at this keyword
        count, so the batch path is the scalar loop; the batch API exists so
        stages stay shape-stable if a true multi-pattern automaton
        (Aho-Corasick) lands later."""
        return [self.relevant(t) for t in texts]


def normalize_for_fuzzy(title: str) -> str:
    """Lowercase + strip ALL whitespace (the normalization the reference's
    fuzzy dedup applies before comparing — Google_Crawler.py:59-63)."""
    return collapse_ws(title.lower())


def _lcs_len(a: str, b: str) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986): O(|a| · |b|/wordsize)
    via Python big-int bit ops — ~100× the DP on short titles, which makes
    the order-dependent fuzzy dedup scan cheap enough to stay sequential."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for i, cb in enumerate(b):
        masks[cb] = masks.get(cb, 0) | (1 << i)
    row = 0
    for ca in a:
        x = row | masks.get(ca, 0)
        row = x & ~(x - ((row << 1) | 1))
    return bin(row).count("1")


def fuzz_ratio(a: str, b: str) -> int:
    """Similarity ratio in [0, 100], the ``fuzz.ratio`` family semantics
    (indel distance — substitutions cost 2): ``100 * 2*LCS / (|a|+|b|)``,
    rounded. Disjoint strings → 0, identical → 100. Defined once here;
    pipeline and oracle share it."""
    total = len(a) + len(b)
    if total == 0:
        return 100
    return int(round(200.0 * _lcs_len(a, b) / total))


def fuzzy_is_dup(title: str, accepted_norm: list[str], threshold: int) -> bool:
    """Order-dependent near-dup check: compare against PREVIOUSLY ACCEPTED
    titles in scan order; first-accepted-wins (SURVEY D3;
    Google_Crawler.py:231-238 — the aggressive threshold 35 is preserved
    verbatim, not 'fixed')."""
    norm = normalize_for_fuzzy(title)
    return any(fuzz_ratio(norm, seen) >= threshold for seen in accepted_norm)
