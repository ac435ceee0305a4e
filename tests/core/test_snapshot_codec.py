"""The declarative snapshot codec: exact round trips, strict decoding.

A :class:`VmSnapshot` leaves the process (the worker HELLO) as
canonical JSON.  The round trip must be the identity — every field,
both arches, with and without guest memory — down to the insertion
order of the int-keyed maps, which travel as ordered pairs.  Decoding
may raise only :class:`SeedFormatError`.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import VmSnapshot, take_snapshot
from repro.errors import SeedFormatError
from tests.core.test_snapshot_properties import OPS, _apply, _world


def _orders(snapshot: VmSnapshot) -> dict[str, list]:
    """Key order of every map in the snapshot, nested ones included."""
    orders: dict[str, list] = {}

    def walk(path: str, value: object) -> None:
        if isinstance(value, dict):
            orders[path] = list(value)
            for key, item in value.items():
                walk(f"{path}.{key}", item)

    for field in dataclasses.fields(snapshot):
        walk(field.name, getattr(snapshot, field.name))
    return orders


@pytest.mark.parametrize("arch", ["vmx", "svm"])
@settings(max_examples=25, deadline=None)
@given(ops=OPS, include_memory=st.booleans())
def test_round_trip_is_identity(arch, ops, include_memory):
    hv, domain, vcpu = _world(arch)
    for op in ops:
        _apply(hv, domain, vcpu, op)
    snapshot = take_snapshot(hv, domain, include_memory=include_memory)

    text = snapshot.to_json()
    decoded = VmSnapshot.from_json(text)

    assert decoded == snapshot
    assert _orders(decoded) == _orders(snapshot)
    assert decoded.to_json() == text
    assert (decoded.memory_pages is None) == (not include_memory)
    # Types survive too: enum keys stay enums, the gfn list a tuple.
    assert [type(k) for k in decoded.vmcs_fields] == \
        [type(k) for k in snapshot.vmcs_fields]
    assert [type(k) for k in decoded.gprs] == \
        [type(k) for k in snapshot.gprs]
    assert isinstance(decoded.ept_gfns, tuple)


@pytest.fixture(scope="module")
def snapshot_json():
    hv, domain, _vcpu = _world("vmx")
    domain.memory.write(0x1000, b"\x90\x90")
    return take_snapshot(hv, domain, include_memory=True).to_json()


def _tamper(text: str, path: tuple, value: object) -> str:
    data = json.loads(text)
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(data)


_DELETE = object()


@pytest.mark.parametrize("path, value", [
    (("rip",), "0x10"),
    (("rip",), True),
    (("rip",), _DELETE),
    (("surplus",), 1),
    (("launch_state",), 7),
    (("vmcs_fields",), {"1": 2}),
    (("vmcs_fields", 0), [1]),
    (("vmcs_fields", 0, 0), 0x7FFF_FFFF),
    (("gprs", 0, 0), -1),
    (("msr_values", 1), [0x174, None]),
    (("hvm",), []),
    (("hvm", "guest_mode"), 1.5),
    (("vlapic", "enabled"), 1),
    (("vlapic", "irr"), {"0": 1}),
    (("vpt", "latch"), [[0, "x"]]),
    (("irq", "asserted"), None),
    (("memory_pages", 0, 1), "not base64!"),
    (("memory_pages", 0, 1), 5),
    (("ept_gfns",), 3),
])
def test_mistyped_field_raises_seed_format_error(
    snapshot_json, path, value
):
    VmSnapshot.from_json(snapshot_json)  # the valid document decodes
    with pytest.raises(SeedFormatError):
        VmSnapshot.from_json(_tamper(snapshot_json, path, value))


def test_repeated_map_key_is_refused(snapshot_json):
    data = json.loads(snapshot_json)
    data["msr_values"].append(list(data["msr_values"][0]))
    with pytest.raises(SeedFormatError, match="repeats"):
        VmSnapshot.from_json(json.dumps(data))


@pytest.mark.parametrize("text", [
    "", "null", "[]", "{", "\udcff", b"\xff\xfe", "[" * 100_000,
])
def test_malformed_json_raises_seed_format_error(text):
    with pytest.raises(SeedFormatError):
        VmSnapshot.from_json(text)
