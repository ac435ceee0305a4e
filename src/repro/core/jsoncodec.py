"""Declarative JSON codecs: a value and its type, to JSON and strictly back.

Bytes that leave the process as JSON — the worker wire's TASK and
RESULT payloads, the snapshot in its HELLO — are encoded from a
*schema* and decoded against the same schema, so a decoder can only
ever build the types the schema declares.  A schema is:

* a scalar type (``int``, ``str``, ``bool``, ``float``); ``bytes``
  travels as base64 and an :class:`enum.Enum` as its value;
* a dataclass: an object of exactly its fields, typed by its hints;
* a dict literal ``{"name": schema, ...}``: a record with exactly
  those keys, rebuilt in declaration order;
* ``dict[K, V]``: ordered ``[key, value]`` pairs — JSON object keys
  are strings and canonical JSON sorts them, so pairs are what keeps a
  map's insertion order and key type intact;
* ``list[T]``, ``tuple[T, ...]``, a fixed ``tuple[A, B]``,
  ``frozenset[T]`` (a sorted list), or ``T | None``.

A :class:`JsonCodec` may map some types to their own ``(encode,
decode)`` pair.  Decoding checks every JSON type with ``type() is`` —
JSON ``true`` is no integer, ``1`` is no flag — and raises only
:class:`SeedFormatError`, whatever the input.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Callable, Mapping

from repro.errors import SeedFormatError

Special = Mapping[Any, tuple[Callable[[Any], Any], Callable[[Any], Any]]]


@functools.cache
def _fields(cls: type) -> dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _expect(kind: type, value: Any) -> Any:
    if type(value) is not kind:
        raise SeedFormatError(
            f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _record(schema: Mapping[str, Any], value: Mapping[str, Any]) -> Any:
    if value.keys() != schema.keys():
        raise SeedFormatError(
            f"record keys {sorted(value)} are not {sorted(schema)}"
        )
    return schema.items()


def _optional(args: tuple[Any, ...]) -> Any:
    (inner,) = [arg for arg in args if arg is not type(None)]
    return inner


class JsonCodec:
    """Encode and decode values against schemas (see the module doc);
    ``special`` gives some types their own ``(encode, decode)``."""

    def __init__(self, special: Special | None = None) -> None:
        self.special = dict(special or {})

    def encode(self, schema: Any, value: Any) -> Any:
        if isinstance(schema, dict):
            return {k: self.encode(sub, value[k])
                    for k, sub in _record(schema, value)}
        if schema in self.special:
            return self.special[schema][0](value)
        origin, args = typing.get_origin(schema), typing.get_args(schema)
        if origin in (typing.Union, types.UnionType):
            return None if value is None else \
                self.encode(_optional(args), value)
        if origin is dict:
            return [[self.encode(args[0], k), self.encode(args[1], v)]
                    for k, v in value.items()]
        if origin is tuple and args[-1] is not Ellipsis:
            return [self.encode(a, v) for a, v in zip(args, value)]
        if origin in (list, tuple, frozenset):
            items = [self.encode(args[0], item) for item in value]
            return sorted(items) if origin is frozenset else items
        if dataclasses.is_dataclass(schema):
            return {name: self.encode(hint, getattr(value, name))
                    for name, hint in _fields(schema).items()}
        if schema is bytes:
            return base64.b64encode(value).decode("ascii")
        if issubclass(schema, enum.Enum):
            return value.value
        return value

    def decode(self, schema: Any, value: Any) -> Any:
        """Strict inverse of :meth:`encode`: only ``SeedFormatError``."""
        if isinstance(schema, dict):
            return {k: self.decode(sub, value[k])
                    for k, sub in _record(schema, _expect(dict, value))}
        if schema in self.special:
            try:
                return self.special[schema][1](value)
            except SeedFormatError:
                raise
            except Exception as exc:
                raise SeedFormatError(
                    f"undecodable {schema.__name__}: {exc!r}"
                ) from exc
        origin, args = typing.get_origin(schema), typing.get_args(schema)
        if origin in (typing.Union, types.UnionType):
            return None if value is None and type(None) in args else \
                self.decode(_optional(args), value)
        if origin is dict:
            decoded: dict[Any, Any] = {}
            for pair in _expect(list, value):
                if type(pair) is not list or len(pair) != 2:
                    raise SeedFormatError("map entry is not a pair")
                decoded[self.decode(args[0], pair[0])] = \
                    self.decode(args[1], pair[1])
            if len(decoded) != len(value):
                raise SeedFormatError("map repeats a key")
            return decoded
        if origin is tuple and args[-1] is not Ellipsis:
            if len(_expect(list, value)) != len(args):
                raise SeedFormatError(f"expected {len(args)} items")
            return tuple(map(self.decode, args, value))
        if origin in (list, tuple, frozenset):
            return origin(self.decode(args[0], item)
                          for item in _expect(list, value))
        if dataclasses.is_dataclass(schema):
            return schema(**{
                name: self.decode(hint, value[name])
                for name, hint in _record(_fields(schema),
                                          _expect(dict, value))
            })
        try:
            if schema is bytes:
                return base64.b64decode(_expect(str, value), validate=True)
            if issubclass(schema, enum.Enum):
                return schema(_expect(type(next(iter(schema)).value), value))
        except (binascii.Error, ValueError) as exc:
            raise SeedFormatError(f"undecodable value: {exc}") from None
        return _expect(schema, value)
