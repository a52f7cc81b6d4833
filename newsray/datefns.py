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


def within_last_days(ts: datetime, now: datetime, days: int) -> bool:
    """Recency window (google variant; Google_Crawler.py:101-109): keep ts
    within the last ``days``."""
    return (now - ts) <= timedelta(days=days) and ts <= now + timedelta(days=1)


_KOR_WEEKDAYS = ("월", "화", "수", "목", "금", "토", "일")
_ENG_WEEKDAYS = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


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
