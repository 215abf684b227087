"""The prose docs may name only code that exists.

Every backticked ``repro.``-dotted name in the top-level docs and
``docs/*.md``, and every such name, backticked or not, in the module
docstrings of the test suite and the benchmark scripts, must resolve:
import the longest importable module prefix, then look the rest up
attribute by attribute (a dataclass field counts as an attribute of its
class).  Brace forms such as ``repro.experiments.{runner,chaos}`` expand
to one name per member.  A module or function that is renamed or deleted
without its docs fails here.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted([ROOT / name for name in ("README.md", "DESIGN.md",
                                        "EXPERIMENTS.md", "CONTRIBUTING.md")]
              + list((ROOT / "docs").glob("*.md")))
SCRIPTS = sorted(list((ROOT / "tests").rglob("*.py"))
                 + list((ROOT / "benchmarks").glob("*.py")))

SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w./])repro(?:\.\w+)*(?:\.\{[\w\s,]+\}(?:\.\w+)*)?")


def _expand(name):
    """``repro.a.{b,c}.d`` -> ``repro.a.b.d``, ``repro.a.c.d``."""
    head, brace, tail = name.partition(".{")
    if not brace:
        return [name]
    members, _, rest = tail.partition("}")
    return [f"{head}.{member.strip()}{rest}" for member in members.split(",")]


def _references():
    """Every ``(doc, name)`` pair the docs mention, sorted."""
    return sorted({(doc.name, name)
                   for doc in DOCS
                   for span in SPAN.findall(doc.read_text())
                   for match in NAME.findall(span)
                   for name in _expand(match) if name != "repro"})


def _docstring_references():
    """Every ``(script, name)`` pair the module docstrings of
    :data:`SCRIPTS` mention, sorted."""
    references = set()
    for script in SCRIPTS:
        docstring = ast.get_docstring(ast.parse(script.read_text())) or ""
        references.update(
            (str(script.relative_to(ROOT)), name)
            for match in NAME.findall(docstring)
            for name in _expand(match) if name != "repro")
    return sorted(references)


def _resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            fields = ({field.name for field in dataclasses.fields(target)}
                      if dataclasses.is_dataclass(target) else set())
            if attribute in fields:
                return True
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_every_doc_reference_resolves():
    references = _references()
    assert len(references) > 100, "the scan found too few names to mean much"
    missing = [f"{doc}: `{name}`" for doc, name in references
               if not _resolves(name)]
    assert missing == [], f"docs name code that does not exist: {missing}"


def test_every_docstring_reference_resolves():
    references = _docstring_references()
    assert len(references) > 100, "the scan found too few names to mean much"
    missing = [f"{script}: {name}" for script, name in references
               if not _resolves(name)]
    assert missing == [], f"docstrings name missing code: {missing}"


def test_brace_forms_expand():
    assert _expand("repro.experiments.{runner, chaos}") == [
        "repro.experiments.runner", "repro.experiments.chaos"]
    assert _expand("repro.core.{acd,refine}.x") == [
        "repro.core.acd.x", "repro.core.refine.x"]
    assert not _resolves("repro.core.no_such_module")
    assert not _resolves("repro.core.acd.no_such_name")
