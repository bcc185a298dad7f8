"""Tiny recursive schema validator for the JSON payloads this repo commits.

Benchmarks (``benchmarks/bench_scheduler.py``) and the sweep engine
(:mod:`repro.sweep`) both emit machine-comparable JSON whose shape must stay stable
across PRs.  The schema language is deliberately minimal:

* a ``dict`` *instance* maps required keys to sub-schemas (extra keys are allowed —
  payloads may grow fields without breaking old validators);
* the ``dict`` *type* is a free-form object leaf;
* a one-element ``list`` instance ``[sub]`` is a homogeneous list of ``sub``;
* a type leaf (``int``, ``float``, ``str``, ``bool``) requires that type — ``int``
  also satisfies a ``float`` leaf, but ``bool`` satisfies neither (a classic JSON
  footgun: ``True`` is an ``int`` subclass in Python);
* :class:`OneOf` ``(a, b, ...)`` accepts a payload matching any one alternative (e.g. a
  sweep row that either carries metrics or records why its cell failed).
"""

from __future__ import annotations

__all__ = ["OneOf", "validate_payload"]


class OneOf:
    """Schema node satisfied by a payload that matches at least one of ``alternatives``."""

    def __init__(self, *alternatives):
        if len(alternatives) < 2:
            raise ValueError("OneOf needs at least two alternative schemas")
        self.alternatives = alternatives


def validate_payload(payload, schema, path: str = "$") -> None:
    """Assert ``payload`` matches ``schema``; raises ValueError naming the first mismatch."""
    if isinstance(schema, OneOf):
        errors = []
        for alternative in schema.alternatives:
            try:
                validate_payload(payload, alternative, path)
                return
            except ValueError as exc:
                errors.append(str(exc))
        raise ValueError(f"{path}: matches no alternative ({'; '.join(errors)})")
    if isinstance(schema, dict):
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected object, got {type(payload).__name__}")
        for key, sub in schema.items():
            if key not in payload:
                raise ValueError(f"{path}.{key}: missing required key")
            validate_payload(payload[key], sub, f"{path}.{key}")
        return
    if isinstance(schema, list):
        if len(schema) != 1:
            raise ValueError(f"{path}: list schemas must have exactly one element schema")
        if not isinstance(payload, list):
            raise ValueError(f"{path}: expected list, got {type(payload).__name__}")
        for index, item in enumerate(payload):
            validate_payload(item, schema[0], f"{path}[{index}]")
        return
    if schema is dict:
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected object, got {type(payload).__name__}")
        return
    accepted = (int, float) if schema is float else schema
    if schema in (int, float) and isinstance(payload, bool):
        raise ValueError(f"{path}: expected {schema.__name__}, got bool")
    if not isinstance(payload, accepted):
        raise ValueError(
            f"{path}: expected {schema.__name__}, got {type(payload).__name__}"
        )
