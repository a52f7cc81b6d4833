"""Timestamp parsing cascades + day-group labels (SURVEY.md §2.2 M5/M6, §2.8).

The reference parses ≥8 raw timestamp shapes, several of which depend on the
wall clock (year injection for month-day-only stamps, "today" fallback for
bare HH:MM, a 2-day recency window). Every such function here takes ``now``
as an EXPLICIT parameter — the rebuild never reads the wall clock inside the
pipeline, which is what makes crawl equality reproducible (SURVEY §7.5.3).

All returned datetimes are naive KST wall times (Arrow timestamp[us],
tz-naive — matches DuckDB semantics for the oracle cross-checks).
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta

# frozen "now" used by fixtures/tests (FIXTURES.md): 2025-04-18 17:00 KST
DEFAULT_NOW = datetime(2025, 4, 18, 17, 0, 0)

_KOREAN_RE = re.compile(r"^(\d{4})년\s*(\d{1,2})월\s*(\d{1,2})일$")
_ISO_Z_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})Z$")


def _strptime(raw: str, fmt: str) -> datetime | None:
    try:
        return datetime.strptime(raw, fmt)
    except ValueError:
        return None


def parse_one(raw: str, fmt_name: str, now: datetime) -> datetime | None:
    """Parse ``raw`` with one named format; None if it does not match.

    Format ↔ reference parity (paths under /root/reference/):
      ymd_dot_hms     → Daum_crawler.py:116-127 ('%Y.%m.%d. %H:%M:%S')
      hm_today        → Daum_crawler.py:116-127 (bare %H:%M → today)
      ymd_dash_hms    → Naver_Crawler.py:73-84 (data-date-time attr)
      md_hm_yearinject→ Nate_Crawler.py:108-118 / YNA_Crawler.py:108-117
      ymd_dot_hm      → FnNews_Crawler.py:71-76 / Gukje_Crawler.py:70-76
      korean_ymd      → VOA_Crawler.py:97-104 (%Y년 %m월 %d일 → midnight)
      iso_z_kst       → Google_Crawler.py:85-98 (ISO-Z → UTC → +9h KST)
      pipe_ymd_dash_hm→ FNToday_Crawler.py:83-88 (split('|')[-1])
      ymd_dash_hm     → SkyDaily_Crawler.py:99-115 (cascade member)
    """
    raw = raw.strip()
    if fmt_name == "ymd_dot_hms":  # 2025.04.18. 09:30:00
        return _strptime(raw, "%Y.%m.%d. %H:%M:%S")
    if fmt_name == "hm_today":  # bare 09:30 → today(now)
        t = _strptime(raw, "%H:%M")
        if t is None:
            return None
        return now.replace(hour=t.hour, minute=t.minute, second=0, microsecond=0)
    if fmt_name == "ymd_dash_hms":  # 2025-04-18 09:30:00
        return _strptime(raw, "%Y-%m-%d %H:%M:%S")
    if fmt_name == "ymd_dash_hm":  # 2025-04-18 09:30
        return _strptime(raw, "%Y-%m-%d %H:%M")
    if fmt_name == "ymd_dot_hm":  # 2025.04.18 09:30
        return _strptime(raw, "%Y.%m.%d %H:%M")
    if fmt_name == "md_hm_yearinject":  # 04-18 09:30 → year from now
        t = _strptime(raw, "%m-%d %H:%M")
        if t is None:
            return None
        try:
            return t.replace(year=now.year)
        except ValueError:  # Feb 29 against a non-leap now.year
            return None
    if fmt_name == "korean_ymd":  # 2025년 4월 18일 → midnight
        m = _KOREAN_RE.match(raw)
        if m is None:
            return None
        try:
            return datetime(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        except ValueError:
            return None
    if fmt_name == "iso_z_kst":  # 2025-04-18T00:30:00Z → UTC → KST (+9h)
        m = _ISO_Z_RE.match(raw)
        if m is None:
            return None
        try:
            utc = datetime(*(int(g) for g in m.groups()))
        except ValueError:
            return None
        return utc + timedelta(hours=9)
    if fmt_name == "pipe_ymd_dash_hm":  # "기자 이름 | 2025-04-18 09:30"
        return _strptime(raw.split("|")[-1].strip(), "%Y-%m-%d %H:%M")
    raise KeyError(f"unknown time format {fmt_name!r}")


def parse_cascade(raw: str | None, fmt_names: tuple[str, ...], now: datetime) -> datetime | None:
    """First-match-wins cascade; None = unparseable → the record is DROPPED
    (the reference drops articles whose time fails to parse)."""
    if raw is None:
        return None
    for name in fmt_names:
        ts = parse_one(raw, name, now)
        if ts is not None:
            return ts
    return None


def _parse_one_series(sub, name: str, now: datetime):
    """Vector twin of ``parse_one`` over a pandas string Series (NaT where
    the format does not match). Must stay semantically identical — the
    equivalence is property-tested against the scalar cascade. Date parts
    are assembled only for the rows whose partial parse matched: the NaN
    parts of the others made pandas' unit arithmetic overflow."""
    import pandas as pd

    if name == "ymd_dot_hms":
        return pd.to_datetime(sub, format="%Y.%m.%d. %H:%M:%S", errors="coerce")
    if name == "hm_today":
        t = pd.to_datetime(sub, format="%H:%M", errors="coerce")
        t = t[t.notna()]
        base = pd.Timestamp(now.year, now.month, now.day)
        return (base + pd.to_timedelta(t.dt.hour * 60 + t.dt.minute, unit="m")).reindex(sub.index)
    if name == "ymd_dash_hms":
        return pd.to_datetime(sub, format="%Y-%m-%d %H:%M:%S", errors="coerce")
    if name == "ymd_dash_hm":
        return pd.to_datetime(sub, format="%Y-%m-%d %H:%M", errors="coerce")
    if name == "ymd_dot_hm":
        return pd.to_datetime(sub, format="%Y.%m.%d %H:%M", errors="coerce")
    if name == "md_hm_yearinject":
        t = pd.to_datetime(sub, format="%m-%d %H:%M", errors="coerce")
        t = t[t.notna()]
        parts = pd.DataFrame(
            {
                "year": now.year,
                "month": t.dt.month,
                "day": t.dt.day,
                "hour": t.dt.hour,
                "minute": t.dt.minute,
            },
            index=t.index,
        )
        # Feb 29 → NaT, like scalar
        return pd.to_datetime(parts, errors="coerce").reindex(sub.index)
    if name == "korean_ymd":
        ex = sub.str.extract(_KOREAN_RE).dropna()
        parts = pd.DataFrame(
            {"year": ex[0].astype(int), "month": ex[1].astype(int), "day": ex[2].astype(int)},
            index=ex.index,
        )
        return pd.to_datetime(parts, errors="coerce").reindex(sub.index)
    if name == "iso_z_kst":
        ok = sub.str.match(_ISO_Z_RE.pattern)  # the scalar path's anchored regex
        t = pd.to_datetime(
            sub.where(ok), format="%Y-%m-%dT%H:%M:%SZ", errors="coerce"
        )
        return t + pd.Timedelta(hours=9)
    if name == "pipe_ymd_dash_hm":
        tail = sub.str.split("|").str[-1].str.strip()
        return pd.to_datetime(tail, format="%Y-%m-%d %H:%M", errors="coerce")
    raise KeyError(f"unknown time format {name!r}")


def parse_cascade_series(raws: list, fmt_names: tuple[str, ...], now: datetime):
    """Vectorized first-match-wins cascade over a column of raw timestamp
    strings: one pandas ``to_datetime`` pass per format over the still-
    unparsed rows. Returns a datetime64[us] Series (NaT = drop). The hot
    single-hop finalize stage uses this; the scalar ``parse_cascade`` stays
    the semantic reference (oracle + two-hop path), with equivalence
    property-tested in tests/test_functions.py."""
    import pandas as pd

    s = pd.Series(raws, dtype="object")
    stripped = s.str.strip()
    out = pd.Series(pd.NaT, index=s.index, dtype="datetime64[ns]")
    for name in fmt_names:
        todo = out.isna() & stripped.notna()
        if not todo.any():
            break
        parsed = _parse_one_series(stripped[todo], name, now)
        out.loc[todo] = pd.Series(parsed, index=stripped[todo].index)
    return out.astype("datetime64[us]")


def within_last_days(ts: datetime, now: datetime, days: int) -> bool:
    """Recency window (google variant; Google_Crawler.py:101-109): keep ts
    within the last ``days``."""
    return (now - ts) <= timedelta(days=days) and ts <= now + timedelta(days=1)


_KOR_WEEKDAYS = ("월", "화", "수", "목", "금", "토", "일")
_ENG_WEEKDAYS = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


def day_group_labels_series(ts, weekday_style: str = "korean"):
    """Vector twin of ``day_group_label`` over a datetime64 Series."""
    base = (
        ts.dt.year.astype(str)
        + "년 "
        + ts.dt.month.astype(str).str.zfill(2)
        + "월 "
        + ts.dt.day.astype(str).str.zfill(2)
        + "일 "
    )
    wd = ts.dt.weekday
    if weekday_style == "english":
        return base + wd.map(lambda i: _ENG_WEEKDAYS[i])
    return base + wd.map(lambda i: _KOR_WEEKDAYS[i] + "요일")


def day_group_label(ts: datetime, weekday_style: str = "korean") -> str:
    """'YYYY년 MM월 DD일 <weekday>' label used as the day-group key.

    ``korean`` → '…일 금요일' (Naver_Crawler.py:16-23); ``english`` →
    '…일 Friday' (Daum_crawler.py:191-194 regroups with %A at save time,
    inconsistent with its own header — preserved as a per-site flag rather
    than 'fixed').
    """
    base = f"{ts.year}년 {ts.month:02d}월 {ts.day:02d}일"
    if weekday_style == "english":
        return f"{base} {_ENG_WEEKDAYS[ts.weekday()]}"
    return f"{base} {_KOR_WEEKDAYS[ts.weekday()]}요일"


def iso(ts: datetime) -> str:
    return ts.isoformat()
