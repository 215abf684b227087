"""The reference engines are test oracles, not product code.

:mod:`repro.reference` holds the literal readings of the paper that the
identity suites and the BENCH A/B stages check the production phases
against.  If a production module imported it, an oracle could quietly
become a second production path again.  This test walks every module
under ``src/repro`` and fails on any import of ``repro.reference`` outside
the oracle module itself.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
ORACLE = PACKAGE_ROOT / "reference.py"


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(path: Path, root: Path):
    """Every module an ``import`` / ``from ... import`` in ``path`` names,
    relative imports resolved against the module's package."""
    module = _module_name(path, root)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module or ""
            yield source
            for alias in node.names:
                yield f"{source}.{alias.name}"


def _imports_oracle(path: Path, root: Path = PACKAGE_ROOT) -> bool:
    return any(name == "repro.reference"
               or name.startswith("repro.reference.")
               for name in _imported_modules(path, root))


def test_no_production_module_imports_the_oracle():
    offenders = sorted(
        str(path.relative_to(PACKAGE_ROOT.parent))
        for path in PACKAGE_ROOT.rglob("*.py")
        if path != ORACLE and _imports_oracle(path)
    )
    assert offenders == [], (
        "production modules must not import repro.reference (it is a test "
        f"oracle): {offenders}"
    )


def test_detector_sees_every_import_form(tmp_path):
    """The walk would be vacuous if it missed an import spelling."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    spellings = (
        "import repro.reference\n",
        "from repro.reference import pc_pivot\n",
        "from repro import reference\n",
        "from .. import reference\n",
        "from ..reference import choose_k\n",
    )
    root = tmp_path / "repro"
    for index, source in enumerate(spellings):
        module = package / f"m{index}.py"
        module.write_text(source)
        assert _imports_oracle(module, root), source
    clean = package / "clean.py"
    clean.write_text("from repro.core import refine\n"
                     "from . import reference_counts\n")
    assert not _imports_oracle(clean, root)
