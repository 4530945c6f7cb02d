"""Public boolean-op API on plain-Python multipolygons.

Mirrors reference lib/src/boolean/mod.rs:88-141 (pipeline driver, bbox
disjoint short-circuit, trivial results, contour→polygon assembly).

Geometry representation throughout the engine:
  multipolygon = [polygon, ...]
  polygon      = [ring, ...]        (ring 0 = exterior, rest = holes)
  ring         = [(x, y), ...]      (closed: first == last)
"""

from __future__ import annotations

from .compute_fields import OP_DIFFERENCE, OP_INTERSECTION, OP_UNION, OP_XOR
from .connect_edges import connect_edges
from .subdivide import fill_queue, subdivide

OPERATIONS = (OP_INTERSECTION, OP_DIFFERENCE, OP_UNION, OP_XOR)


def boolean_op(subject, clipping, operation, dtype: str = "f64"):
    """Boolean operation on two multipolygons; returns a multipolygon.

    Runs one pair through the native (C) batch kernel when it is
    available — an operation-for-operation port verified bit-for-bit
    against the same golden corpus (see native/); `GEO_NATIVE=0` or a
    missing compiler runs the pure-Python kernel below.

    ``dtype="f32"`` runs the generic-Float kernel in single precision
    (the reference is generic over Float, helper.rs:8-10): inputs are
    rounded to binary32, intersection arithmetic and the ULP nudge run
    as true f32 ops (geom/f32.py), and outputs are exact
    f32-representable doubles.  The f32 path always uses the Python
    kernel (the native port is f64)."""
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation: {operation!r}")

    if dtype == "f32":
        from .f32 import mp_to_f32, mp_to_f64

        return mp_to_f64(
            boolean_op_python(mp_to_f32(subject), mp_to_f32(clipping), operation)
        )
    if dtype != "f64":
        raise ValueError(f"unknown dtype: {dtype!r}")

    from ..native import native_boolean_op

    result = native_boolean_op(subject, clipping, operation)
    if result is not None:
        return result
    return boolean_op_python(subject, clipping, operation)


def boolean_op_python(subject, clipping, operation):
    """The pure-Python kernel (always available; the parity oracle for
    the native port)."""
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation: {operation!r}")

    queue, sbbox, cbbox = fill_queue(subject, clipping, operation)

    # bbox disjoint short-circuit (mod.rs:106-109)
    if (
        sbbox[0] > cbbox[2]
        or cbbox[0] > sbbox[2]
        or sbbox[1] > cbbox[3]
        or cbbox[1] > sbbox[3]
    ):
        return trivial_result(subject, clipping, operation)

    sorted_events = subdivide(queue, sbbox, cbbox, operation)
    contours = connect_edges(sorted_events)

    # contours → polygons (mod.rs:116-129)
    polygons = []
    for contour in contours:
        if contour.is_exterior():
            polygon = [list(contour.points)]
            for hole_id in contour.hole_ids:
                polygon.append(list(contours[hole_id].points))
            polygons.append(polygon)
    return polygons


def trivial_result(subject, clipping, operation):
    # reference mod.rs:132-141
    if operation == OP_INTERSECTION:
        return []
    if operation == OP_DIFFERENCE:
        return [list(p) for p in subject]
    return [list(p) for p in subject] + [list(p) for p in clipping]


def intersection(subject, clipping):
    return boolean_op(subject, clipping, OP_INTERSECTION)


def union(subject, clipping):
    return boolean_op(subject, clipping, OP_UNION)


def difference(subject, clipping):
    return boolean_op(subject, clipping, OP_DIFFERENCE)


def xor(subject, clipping):
    return boolean_op(subject, clipping, OP_XOR)
