"""Event-queue fill and the sweep loop.

Mirrors reference lib/src/boolean/fill_queue.rs:10-85 and
subdivide_segments.rs:14-103.  The status line is the faithful splay-set
port (see splay.py) — for degenerate inputs with duplicate/overlapping
segments the comparator is asymmetric on ties and the reference's
neighbor queries depend on the splay structure, so an arbitrary ordered
set would diverge from the goldens.
"""

from __future__ import annotations

import math

from .compare_segments import compare_segments
from .compute_fields import OP_DIFFERENCE, OP_INTERSECTION, compute_fields
from .possible_intersection import possible_intersection
from .splay import SplaySet
from .sweep_event import EventHeap, SweepEvent, event_cmp


def fill_queue(subject, clipping, operation):
    """reference fill_queue.rs:10-43.

    subject/clipping: list of polygons; polygon = list of rings;
    ring = list of (x, y) tuples (closed or open — consecutive-pair edges).
    Returns (queue, sbbox, cbbox) with bbox = [minx, miny, maxx, maxy].
    """
    queue = EventHeap()
    sbbox = [math.inf, math.inf, -math.inf, -math.inf]
    cbbox = [math.inf, math.inf, -math.inf, -math.inf]
    contour_id = 0

    for polygon in subject:
        contour_id += 1
        first = True
        for ring in polygon:
            _process_ring(ring, True, contour_id, queue, sbbox, first)
            first = False

    for polygon in clipping:
        exterior = operation != OP_DIFFERENCE
        if exterior:
            contour_id += 1
        first = True
        for ring in polygon:
            _process_ring(ring, False, contour_id, queue, cbbox, exterior and first)
            first = False

    return queue, sbbox, cbbox


def _process_ring(ring, is_subject, contour_id, queue, bbox, is_exterior_ring):
    # reference fill_queue.rs:45-85
    for i in range(len(ring) - 1):
        start = ring[i]
        end = ring[i + 1]
        if start == end:
            continue  # skip collapsed edges

        e1 = SweepEvent(contour_id, start, False, None, is_subject, is_exterior_ring)
        e2 = SweepEvent(contour_id, end, False, e1, is_subject, is_exterior_ring)
        e1.other_event = e2

        if event_cmp(e1, e2) < 0:  # e1 < e2 ⇒ e1 pops later ⇒ e2 is the left event
            e2.left = True
        else:
            e1.left = True

        if start[0] < bbox[0]:
            bbox[0] = start[0]
        if start[1] < bbox[1]:
            bbox[1] = start[1]
        if start[0] > bbox[2]:
            bbox[2] = start[0]
        if start[1] > bbox[3]:
            bbox[3] = start[1]

        queue.push(e1)
        queue.push(e2)


def subdivide(queue: EventHeap, sbbox, cbbox, operation):
    """The sweep loop — reference subdivide_segments.rs:14-103."""
    sweep_line = SplaySet(compare_segments)
    sorted_events: list[SweepEvent] = []
    rightbound = min(sbbox[2], cbbox[2])
    # Two of the E input edges split each other at most twice, so a
    # sweep pops at most ~2E + 4E² events.  Past twice that, the
    # reference's 1-ULP intersection nudge is creeping along a segment
    # and the sweep would never end: fail the pair instead.
    n_edges = len(queue) // 2
    budget = 2 * n_edges + 8 * n_edges * n_edges

    while len(queue):
        event = queue.pop()
        sorted_events.append(event)
        if len(sorted_events) > budget:
            raise RuntimeError("sweep exceeded its event budget")

        if (operation == OP_INTERSECTION and event.point[0] > rightbound) or (
            operation == OP_DIFFERENCE and event.point[0] > sbbox[2]
        ):
            break

        if event.left:
            # Call order (insert → prev → next → …) matters: every splay-set
            # operation restructures the tree (subdivide_segments.rs:41-70).
            sweep_line.insert(event)
            maybe_prev = sweep_line.prev(event)
            maybe_next = sweep_line.next(event)

            compute_fields(event, maybe_prev, operation)

            if maybe_next is not None:
                if possible_intersection(event, maybe_next, queue) == 2:
                    compute_fields(event, maybe_prev, operation)
                    compute_fields(maybe_next, event, operation)

            if maybe_prev is not None:
                if possible_intersection(maybe_prev, event, queue) == 2:
                    maybe_prev_prev = sweep_line.prev(maybe_prev)
                    compute_fields(maybe_prev, maybe_prev_prev, operation)
                    compute_fields(event, maybe_prev, operation)
        else:
            other_event = event.other_event
            if other_event is not None:
                # (subdivide_segments.rs:72-99; contains/prev/next each splay)
                if sweep_line.contains(other_event):
                    maybe_prev = sweep_line.prev(other_event)
                    maybe_next = sweep_line.next(other_event)
                    if maybe_prev is not None and maybe_next is not None:
                        possible_intersection(maybe_prev, maybe_next, queue)
                    sweep_line.remove(other_event)

    return sorted_events
