"""One JSON form for every saved dataclass: configs, schemas, reports, models.

A ``Json`` dataclass writes its ``JSON_HEADER`` keys, then each field in
declaration order, except fields declared ``init=False`` or marked ``SKIP``.
An array becomes nested lists with null for a non-finite cell, a date an ISO
string, a nested ``Json`` value its own form; ``json`` writes the rest, tuples
as lists.  ``from_json`` decodes by the resolved field annotations: an unknown
key, a header mismatch, or a wrong or missing value raises ``BadConfig``.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import types
import typing

import numpy as np

from .errors import BadConfig

# field metadata: the JSON form leaves the field out
SKIP = {"json_skip": True}
_UNIONS = (typing.Union, types.UnionType)


class Json:
    """Mixin giving a dataclass ``to_json`` and ``from_json``."""

    JSON_HEADER = {}  # keys written first and checked on decode

    def to_json(self) -> dict:
        doc = dict(self.JSON_HEADER)
        for name, _, encode, _ in _plan(type(self)):
            value = getattr(self, name)
            doc[name] = value if encode is None else encode(value)
        return doc

    @classmethod
    def from_json(cls, doc, **given):
        """Decode ``doc``; ``given`` holds already-built field values, skipped ones too."""
        _expect(doc, dict)
        if any(doc.get(key) != value for key, value in cls.JSON_HEADER.items()):
            raise BadConfig(f"header must be {cls.JSON_HEADER}")
        unknown = doc.keys() - cls.JSON_HEADER.keys() - {name for name, *_ in _plan(cls)}
        if unknown:
            raise BadConfig(f"unknown keys {sorted(unknown)}")
        for name, tp, _, required in _plan(cls):
            if name in doc and name not in given:
                try:
                    given[name] = _decode(tp, doc[name])
                except BadConfig as exc:
                    raise BadConfig(f"{name}: {exc}") from None
            elif required and name not in given:
                raise BadConfig(f"missing {name!r}")
        return cls(**given)


@functools.cache
def _plan(cls) -> tuple:
    """(name, annotation, encoder or None, required) per written field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], _encoder(hints[f.name]),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls) if f.init and not f.metadata.get("json_skip")
    )


def _encoder(tp):
    """How a value of type ``tp`` is written; None when ``json`` writes it as is."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in _UNIONS:
        arms = [a for a in args if a is not type(None)]
        inner = _encoder(arms[0]) if len(arms) == 1 else None
        return None if inner is None else (lambda v: None if v is None else inner(v))
    if typing.get_origin(tp) in (tuple, list):
        item = _encoder(args[0])
        return None if item is None else (lambda v: [item(x) for x in v])
    if tp is np.ndarray:
        return lambda v: np.where(np.isfinite(v), v, None).tolist()
    if tp is dt.date:
        return dt.date.isoformat
    if isinstance(tp, type) and issubclass(tp, Json):
        return lambda v: v.to_json()
    return None


def _decode(tp, value):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _UNIONS:
        if value is None and type(None) in args:
            return None
        first, *others = [a for a in args if a is not type(None)]
        for arm in others:  # tried first, so a failure reports the first arm's error
            try:
                return _decode(arm, value)
            except BadConfig:
                pass
        return _decode(first, value)
    if origin in (tuple, list):
        _expect(value, list, tuple)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise BadConfig(f"expected {len(args)} items, got {len(value)}")
            return tuple(_decode(t, x) for t, x in zip(args, value))
        return origin(_decode(args[0], x) for x in value)
    if origin is dict:
        return {_decode(args[0], k): _decode(args[1], x) for k, x in _expect(value, dict).items()}
    if tp is np.ndarray:
        try:
            array = np.asarray(_expect(value, list, tuple))
            array = array.astype(np.float64) if array.dtype == object else array  # null cells
        except (TypeError, ValueError) as exc:
            raise BadConfig(f"expected a numeric array: {exc}") from None
        if array.dtype.kind not in "if":
            raise BadConfig(f"expected a numeric array, got {array.dtype} cells")
        return array
    if tp is dt.date:
        try:
            return dt.date.fromisoformat(_expect(value, str))
        except ValueError:
            raise BadConfig(f"expected an ISO date, got {value!r}") from None
    if issubclass(tp, Json):
        return tp.from_json(value)
    return _expect(value, int, float) if tp is float else _expect(value, tp)


def _expect(value, *kinds):
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise BadConfig(f"expected {names}, got {type(value).__name__}")
    return value
