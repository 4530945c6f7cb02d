"""Result assembly: order events, iterate vertex cycles, build contours.

Mirrors reference lib/src/boolean/connect_edges.rs:7-302 (order_events'
bubble re-sort, the clockwise iteration-order map, and the 4
parent-contour cases of Fig. 4 of the Martinez paper).
"""

from __future__ import annotations

from .sweep_event import TRANS_OUT_IN, SweepEvent, event_cmp


def order_events(sorted_events):
    # reference connect_edges.rs:7-47
    result_events = []
    for event in sorted_events:
        if (event.left and event.is_in_result()) or (
            not event.left
            and event.other_event is not None
            and event.other_event.is_in_result()
        ):
            result_events.append(event)

    # Divisions create events slightly out of final order — bubble passes
    # exactly as the reference does.
    done = False
    while not done:
        done = True
        for i in range(1, len(result_events)):
            if event_cmp(result_events[i - 1], result_events[i]) < 0:
                result_events[i - 1], result_events[i] = (
                    result_events[i],
                    result_events[i - 1],
                )
                done = False

    for pos, event in enumerate(result_events):
        event.other_pos = pos
    for event in result_events:
        if event.left and event.other_event is not None:
            other = event.other_event
            event.other_pos, other.other_pos = other.other_pos, event.other_pos

    return result_events


def precompute_iteration_order(data):
    # reference connect_edges.rs:59-119
    n = len(data)
    mapping = [0] * n
    i = 0
    while i < n:
        x_ref = data[i].point

        r_from = i
        while i < n and data[i].point == x_ref and not data[i].left:
            i += 1
        r_upto_exclusive = i

        l_from = i
        while i < n and data[i].point == x_ref:
            i += 1
        l_upto_exclusive = i

        has_r = r_upto_exclusive > r_from
        has_l = l_upto_exclusive > l_from

        if has_r:
            r_upto = r_upto_exclusive - 1
            for j in range(r_from, r_upto):
                mapping[j] = j + 1
            if has_l:
                mapping[r_upto] = l_upto_exclusive - 1
            else:
                mapping[r_upto] = r_from
        if has_l:
            l_upto = l_upto_exclusive - 1
            for j in range(l_from + 1, l_upto + 1):
                mapping[j] = j - 1
            if has_r:
                mapping[l_from] = r_from
            else:
                mapping[l_from] = l_upto
    return mapping


def get_next_pos(pos, processed, iteration_map):
    # reference connect_edges.rs:121-134
    start_pos = pos
    while True:
        pos = iteration_map[pos]
        if pos == start_pos:
            return None
        if pos not in processed:
            return pos


class Contour:
    __slots__ = ("points", "hole_ids", "hole_of", "depth")

    def __init__(self, hole_of=None, depth=0):
        self.points = []
        self.hole_ids = []
        self.hole_of = hole_of
        self.depth = depth

    def is_exterior(self) -> bool:
        return self.hole_of is None


def initialize_contour_from_context(event: SweepEvent, contours, contour_id: int) -> Contour:
    # reference connect_edges.rs:166-210
    prev_in_result = event.prev_in_result
    if prev_in_result is not None:
        lower_contour_id = prev_in_result.output_contour_id
        if prev_in_result.result_transition == TRANS_OUT_IN:
            if lower_contour_id < 0:
                # the reference indexes contours[lower_contour_id as
                # usize] and panics; a negative Python index would
                # silently pick the last contour
                raise RuntimeError("previous result event has no output contour")
            # We are inside; check whether the thing below is a hole or exterior
            lower_contour = contours[lower_contour_id]
            if lower_contour.hole_of is not None:
                parent_contour_id = lower_contour.hole_of
                contours[parent_contour_id].hole_ids.append(contour_id)
                return Contour(parent_contour_id, contours[lower_contour_id].depth)
            contours[lower_contour_id].hole_ids.append(contour_id)
            return Contour(lower_contour_id, contours[lower_contour_id].depth + 1)
        if 0 <= lower_contour_id < len(contours):
            return Contour(None, contours[lower_contour_id].depth)
        return Contour(None, 0)
    return Contour(None, 0)


def connect_edges(sorted_events):
    # reference connect_edges.rs:231-302
    result_events = order_events(sorted_events)
    iteration_map = precompute_iteration_order(result_events)

    contours: list[Contour] = []
    processed: set[int] = set()

    for i in range(len(result_events)):
        if i in processed:
            continue

        contour_id = len(contours)
        contour = initialize_contour_from_context(result_events[i], contours, contour_id)

        pos = i
        initial = result_events[pos].point
        contour.points.append(initial)

        while True:
            processed.add(pos)
            result_events[pos].output_contour_id = contour_id

            # pos advancement (A): follow the segment
            pos = result_events[pos].other_pos

            processed.add(pos)
            result_events[pos].output_contour_id = contour_id
            contour.points.append(result_events[pos].point)

            # pos advancement (B): next outgoing edge at this vertex
            next_pos = get_next_pos(pos, processed, iteration_map)
            if next_pos is None:
                break
            pos = next_pos

            # Early contour termination when back at the initial point
            if result_events[pos].point == initial:
                break

        contours.append(contour)

    return contours
