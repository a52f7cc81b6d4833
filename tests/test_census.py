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


def test_attribute_counts_for_a_function_only_through_its_module(tmp_path, monkeypatch):
    """An attribute reference keeps a top-level definition alive only when
    its base is a name the file binds the defining module to; bare names,
    imported names and strings count as before, and methods still count
    any attribute of their name."""
    pkg = tmp_path / "newsray"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "schema.py").write_text(
        "def empty_table(s): ...\n"
        "def by_alias(): ...\n"
        "def by_renamed_alias(): ...\n"
        "def by_import_as(): ...\n"
        "def by_plain_import(): ...\n"
        "def by_name(): ...\n"
        "def by_string(): ...\n"
        "class Table:\n"
        "    def empty_table(self): ...\n"
    )
    (pkg / "user.py").write_text(
        "import pyarrow as pa\n"
        "import newsray.schema\n"
        "import newsray.schema as sch\n"
        "from . import schema\n"
        "from newsray import schema as s2\n"
        "from .schema import Table, by_name\n"
        "def run():\n"
        "    pa.Schema.empty_table()\n"
        "    schema.by_alias()\n"
        "    s2.by_renamed_alias()\n"
        "    sch.by_import_as()\n"
        "    newsray.schema.by_plain_import()\n"
        "    by_name(Table)\n"
        "    getattr(schema, 'by_string')\n"
    )
    monkeypatch.setattr(census, "ROOT", str(tmp_path))
    monkeypatch.setattr(census, "SCANNED", ("newsray",))
    assert sorted(key for key, _ in census.census()) == ["schema.empty_table", "user.run"]
