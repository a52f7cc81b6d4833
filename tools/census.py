"""Census of newsray definitions that nothing but the tests calls.

Walks ``newsray/*.py`` and lists every top-level function and class and
every class method. A definition counts as used when its name is referenced
outside its own body anywhere in ``newsray/``, ``bench.py``,
``__ray_entry__.py``, ``perfbench/`` or ``tools/``: as a name, an
attribute, an imported name, or a string that spells it (``perfbench``
wraps layers by strings such as ``"CrawlPipeline.run"``). A method counts
attribute references only, which also catches actor methods reached
through ``handle.<name>.remote()``. ``tests/`` does not count: code that
only tests call is dead code plus its tests.

Matching is by name, not by scope, so a definition sharing its name with a
used one is missed, and so is one called only from other unused code; the
census errs towards "used".

Usage: python tools/census.py   (prints each unused definition that is not
allowed below; exit status 1 if any)
"""

from __future__ import annotations

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("newsray", "bench.py", "__ray_entry__.py", "perfbench", "tools")
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")

# Unused definitions kept for now: "<module>.<qualname>" -> reason. An
# entry whose definition is gone or used again must go too.
PENDING_3 = "pending ROADMAP item 3: only tests call it"
PRE_FUSED = PENDING_3 + " (pre-fused seen protocol)"
ALLOWED = {
    "fetch.Fetcher": PENDING_3,
    "fetch.HttpFetcher": PENDING_3,
    "seen.WaveMinStage.register": PRE_FUSED,
    "seen.WaveMinStage.resolve": PRE_FUSED,
    "seen.SeenFilterStage": PRE_FUSED,
    "synth.write_keyword_config": PENDING_3,
}
# Kinds of definition the runtime calls by protocol, not by name.
HTMLPARSER_HOOK = "HTMLParser hook: the base class's feed() calls it"
REGISTERED = "@register query: reached through registry.QUERIES"


def _py_files(rel: str):
    path = os.path.join(ROOT, rel)
    if path.endswith(".py"):
        yield path
        return
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))


def _references(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """(name, line, is_attribute) of every name, attribute, imported name
    and identifier-shaped string constant in a module. Strings count as
    both kinds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    out += [(part, node.lineno, False), (part, node.lineno, True)]
    return out


def _decorated_with(node: ast.AST, name: str) -> bool:
    for d in getattr(node, "decorator_list", ()):
        d = d.func if isinstance(d, ast.Call) else d
        if (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)) == name:
            return True
    return False


def _definitions(tree: ast.Module):
    """(qualname, node, reason-if-allowed-by-kind) of every top-level
    function/class and every class method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node, REGISTERED if _decorated_with(node, "register") else None
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
        hook = "HTMLParser" in bases
        for m in node.body:
            if isinstance(m, kinds[:2]) and not m.name.startswith("__"):
                reason = HTMLPARSER_HOOK if hook and m.name.startswith("handle_") else None
                yield f"{node.name}.{m.name}", m, reason


def census() -> list[tuple[str, str | None]]:
    """Every newsray definition with no non-test reference, with the
    reason it is allowed (None when it is not). A method counts only
    attribute references (``obj.name``): a bare name of the same spelling
    is some other function."""
    refs: dict[tuple[str, bool], list[tuple[str, int]]] = {}
    trees = {}
    for rel in SCANNED:
        for path in _py_files(rel):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            trees[path] = tree
            if path == os.path.abspath(__file__):
                continue  # ALLOWED's own strings are not references
            for name, line, attr in _references(tree):
                refs.setdefault((name, attr), []).append((path, line))
    unused = []
    for path in _py_files("newsray"):
        module = os.path.basename(path)[: -len(".py")]
        for qual, node, kind_reason in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            hits = refs.get((node.name, True), [])
            if "." not in qual:
                hits = hits + refs.get((node.name, False), [])
            if any(p != path or line not in own for p, line in hits):
                continue
            key = f"{module}.{qual}"
            unused.append((key, ALLOWED.get(key, kind_reason)))
    return unused


def main() -> int:
    bad = [key for key, reason in census() if reason is None]
    for key in bad:
        print(f"unused outside tests: newsray/{key}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
