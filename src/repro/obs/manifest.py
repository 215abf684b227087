"""Run manifests: one JSON document describing what a pipeline run *was*.

A manifest pins everything needed to interpret (or re-run) a traced
pipeline run: the command and config, every seed, a content fingerprint
of the dataset, the repository revision, the crowd-cost rollup, the
metrics registry snapshot, and the per-phase span totals.  It is written
atomically (temp file + ``os.replace``) next to the run's trace so a
crash can never leave a torn manifest.

The document shape is pinned by :data:`MANIFEST_SCHEMA` — a subset of
JSON Schema (``type`` / ``required`` / ``properties`` / ``items``) that
:func:`validate_manifest` enforces without third-party dependencies.
The same schema ships as ``docs/manifest.schema.json`` for external
tooling; a test keeps the two in sync.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.runtime.atomic import atomic_write_text as _atomic_write_text

MANIFEST_SCHEMA_VERSION = 1

MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema_version", "created_unix", "command", "config",
                 "seeds", "metrics", "stats", "spans"],
    "properties": {
        "schema_version": {"type": "integer"},
        "created_unix": {"type": "number"},
        "command": {"type": "string"},
        "git_revision": {"type": ["string", "null"]},
        "config": {
            "type": "object",
            # Execution knobs, when the command records them.  Extra
            # config keys are always allowed; these just pin the types
            # of the ones external tooling keys off.
            "properties": {
                "shards": {"type": ["integer", "string"]},
                "workers": {"type": "integer"},
            },
        },
        "seeds": {"type": "object"},
        "dataset": {
            "type": ["object", "null"],
            "required": ["name", "records", "fingerprint"],
            "properties": {
                "name": {"type": "string"},
                "records": {"type": "integer"},
                "entities": {"type": "integer"},
                "fingerprint": {"type": "string"},
            },
        },
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges", "histograms"],
            "properties": {
                "counters": {"type": "object"},
                "gauges": {"type": "object"},
                "histograms": {"type": "object"},
            },
        },
        "stats": {"type": "object"},
        "generation_stats": {"type": ["object", "null"]},
        "refinement_stats": {"type": ["object", "null"]},
        "spans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "count", "total_s"],
                "properties": {
                    "name": {"type": "string"},
                    "count": {"type": "integer"},
                    "total_s": {"type": "number"},
                },
            },
        },
        "result": {"type": ["object", "null"]},
        "trace_path": {"type": ["string", "null"]},
    },
}

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _validate(instance: Any, schema: Mapping[str, Any], path: str,
              errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[kind](instance) for kind in allowed):
            errors.append(
                f"{path or '$'}: expected {' or '.join(allowed)}, "
                f"got {type(instance).__name__}"
            )
            return
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path or '$'}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                _validate(instance[key], subschema, f"{path}.{key}", errors)
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_manifest(manifest: Any) -> List[str]:
    """Validate a manifest dict against :data:`MANIFEST_SCHEMA`.

    Returns a list of human-readable errors; empty means valid.
    """
    errors: List[str] = []
    _validate(manifest, MANIFEST_SCHEMA, "", errors)
    if not errors and manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"$.schema_version: expected {MANIFEST_SCHEMA_VERSION}, "
            f"got {manifest['schema_version']}"
        )
    return errors


def git_revision(start: Union[str, Path] = ".") -> Optional[str]:
    """Best-effort current commit hash, reading ``.git`` directly.

    Walks up from ``start`` to the nearest ``.git`` directory and follows
    ``HEAD`` one level of indirection; returns ``None`` outside a work
    tree (or on any read failure — provenance is best-effort, never a
    reason to fail a run).
    """
    try:
        directory = Path(start).resolve()
        for candidate in [directory, *directory.parents]:
            git_dir = candidate / ".git"
            if not git_dir.is_dir():
                continue
            head = (git_dir / "HEAD").read_text().strip()
            if head.startswith("ref:"):
                ref = head.split(None, 1)[1]
                ref_file = git_dir / ref
                if ref_file.exists():
                    return ref_file.read_text().strip()
                packed = git_dir / "packed-refs"
                if packed.exists():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref):
                            return line.split()[0]
                return None
            return head or None
    except OSError:
        return None
    return None


def dataset_fingerprint(dataset) -> Dict[str, Any]:
    """A content fingerprint of a dataset: counts plus a stable digest.

    The digest covers record ids, texts, and the gold entity mapping, so
    two runs share a fingerprint iff they deduplicated the same inputs
    against the same ground truth.
    """
    digest = hashlib.sha256()
    for record in sorted(dataset.records, key=lambda r: r.record_id):
        digest.update(
            f"{record.record_id}\x1f{record.text}\x1e".encode("utf-8")
        )
    for record in sorted(dataset.records, key=lambda r: r.record_id):
        digest.update(
            f"{record.record_id}\x1f{dataset.gold.entity(record.record_id)}"
            "\x1e".encode("utf-8")
        )
    return {
        "name": dataset.name,
        "records": len(dataset.records),
        "entities": len(dataset.gold),
        "fingerprint": digest.hexdigest()[:16],
    }


def build_manifest(
    command: str,
    config: Mapping[str, Any],
    seeds: Mapping[str, Any],
    stats: Mapping[str, Any],
    metrics: Mapping[str, Any],
    spans: List[Dict[str, Any]],
    dataset: Optional[Mapping[str, Any]] = None,
    generation_stats: Optional[Mapping[str, Any]] = None,
    refinement_stats: Optional[Mapping[str, Any]] = None,
    result: Optional[Mapping[str, Any]] = None,
    trace_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Assemble a schema-valid manifest document."""
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "command": command,
        "git_revision": git_revision(),
        "config": dict(config),
        "seeds": dict(seeds),
        "dataset": dict(dataset) if dataset is not None else None,
        "metrics": dict(metrics),
        "stats": dict(stats),
        "generation_stats": (dict(generation_stats)
                             if generation_stats is not None else None),
        "refinement_stats": (dict(refinement_stats)
                             if refinement_stats is not None else None),
        "spans": list(spans),
        "result": dict(result) if result is not None else None,
        "trace_path": str(trace_path) if trace_path is not None else None,
    }


def write_manifest(path: Union[str, Path],
                   manifest: Mapping[str, Any]) -> Path:
    """Atomically write a manifest; validates first, raises on invalid."""
    errors = validate_manifest(dict(manifest))
    if errors:
        raise ValueError("refusing to write invalid manifest: "
                         + "; ".join(errors))
    target = Path(path)
    _atomic_write_text(target, json.dumps(manifest, indent=2,
                                          sort_keys=True) + "\n")
    return target


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest back; raises ``ValueError`` if it fails validation."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = validate_manifest(manifest)
    if errors:
        raise ValueError(f"{path}: invalid manifest: " + "; ".join(errors))
    return manifest


def default_manifest_path(trace_path: Union[str, Path]) -> Path:
    """The manifest's conventional home next to a trace file.

    ``run.trace.jsonl`` -> ``run.trace.manifest.json`` (a trailing
    ``.jsonl``/``.json`` suffix is replaced; anything else is appended
    to).
    """
    trace = Path(trace_path)
    if trace.suffix in (".jsonl", ".json"):
        return trace.with_suffix(".manifest.json")
    return trace.with_name(trace.name + ".manifest.json")
