"""The test-only census (tools/census.py) as a check: every newsray
definition has a caller outside tests/, or an allowlist entry that says
why it stays."""

from tools import census


def test_every_definition_has_a_non_test_caller():
    unallowed = [key for key, reason in census.census() if reason is None]
    assert unallowed == [], "delete these with their tests, or allow them with a reason"


def test_allowlist_names_only_unused_definitions():
    unused = {key for key, _ in census.census()}
    assert sorted(set(census.ALLOWED) - unused) == []
