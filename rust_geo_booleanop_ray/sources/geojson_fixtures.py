"""GeoJSON conformance-fixture loader (reference test harness parity).

Mirrors the reference harness semantics (tests/src/helper.rs:84-151):
FeatureCollection with features[0] = subject, features[1] = clipping,
features[2..] = expected results tagged ``properties.operation`` in
{intersection, union, diff, diff_ba, xor}, optional
``swap_ab_is_broken``.  Python's json parses doubles with correctly-
rounded strtod, matching serde_json arbitrary_precision → f64, so
coordinates round-trip exactly.

Rings are closed on load (geo_types ``Polygon::new`` closes rings; the
fixture files are already closed, this is a guard).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

# Fixture op tag → kernel op + swap flag (tests/src/helper.rs:35-43:
# diff_ba applies difference with swapped operands).
OP_TAGS = {
    "intersection": ("intersection", False),
    "union": ("union", False),
    "xor": ("xor", False),
    "diff": ("difference", False),
    "diff_ba": ("difference", True),
}

# Swappable = symmetric ops; difference variants are not
# (tests/src/generic_test_cases.rs:30-34).
SWAPPABLE = {"intersection", "union", "xor"}


def _close_ring(ring):
    pts = [(float(x), float(y)) for x, y in ring]
    if pts and pts[0] != pts[-1]:
        pts.append(pts[0])
    return pts


def geometry_to_multipolygon(geometry: dict):
    """GeoJSON geometry → multipolygon nested lists (Polygon is wrapped,
    mirroring tests/src/helper.rs:108-121)."""
    gtype = geometry["type"]
    coords = geometry["coordinates"]
    if gtype == "Polygon":
        return [[_close_ring(r) for r in coords]]
    if gtype == "MultiPolygon":
        return [[_close_ring(r) for r in poly] for poly in coords]
    raise ValueError(f"Feature must be Polygon or MultiPolygon, got {gtype}")


@dataclass
class ExpectedResult:
    op_tag: str  # raw tag: intersection|union|diff|diff_ba|xor
    result: list
    swap_ab_is_broken: bool = False


@dataclass
class FixtureCase:
    name: str
    subject: list
    clipping: list
    expected: list = field(default_factory=list)  # list[ExpectedResult]


def load_fixture(path: str) -> FixtureCase:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("type") != "FeatureCollection":
        raise ValueError(f"{path}: not a FeatureCollection")
    features = doc["features"]
    if len(features) < 2:
        raise ValueError(f"{path}: needs >= 2 features")

    subject = geometry_to_multipolygon(features[0]["geometry"])
    clipping = geometry_to_multipolygon(features[1]["geometry"])

    expected = []
    for feat in features[2:]:
        props = feat.get("properties") or {}
        op_tag = props["operation"]
        if op_tag not in OP_TAGS:
            raise ValueError(f"{path}: invalid operation {op_tag}")
        expected.append(
            ExpectedResult(
                op_tag=op_tag,
                result=geometry_to_multipolygon(feat["geometry"]),
                swap_ab_is_broken=bool(props.get("swap_ab_is_broken", False)),
            )
        )

    name = os.path.splitext(os.path.basename(path))[0]
    return FixtureCase(name=name, subject=subject, clipping=clipping, expected=expected)


def load_fixture_dir(dirpath: str):
    """All *.geojson fixtures in a directory, sorted by name."""
    cases = []
    for fn in sorted(os.listdir(dirpath)):
        if fn.endswith(".geojson"):
            cases.append(load_fixture(os.path.join(dirpath, fn)))
    return cases


def apply_test_operation(kernel, subject, clipping, op_tag: str):
    """Dispatch a 5-valued fixture op tag (tests/src/helper.rs:35-43)."""
    op, swap = OP_TAGS[op_tag]
    if swap:
        return kernel(clipping, subject, op)
    return kernel(subject, clipping, op)


def multipolygons_equal(a, b) -> bool:
    """Bit-for-bit equality in the reference's sense: same structure, f64
    ``==`` on every coordinate (±0.0 compare equal, as in Rust assert_eq)."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if len(pa) != len(pb):
            return False
        for ra, rb in zip(pa, pb):
            if len(ra) != len(rb):
                return False
            for ca, cb in zip(ra, rb):
                if ca[0] != cb[0] or ca[1] != cb[1]:
                    return False
    return True
