"""`kernel`: the reference's Criterion workloads through the public
`boolean_op`, in the benchmark process, without Ray.

One run is one pass over the eight workloads, one op each, largest
first, so `first_batch_s` is the time to the circles_vs_rects result.  Set-up
requires the 78 reference goldens to pass and records each op's output
digest; every run must reproduce those digests.  The seed picks the
random triangles.
"""

from __future__ import annotations

import glob
import hashlib
import os
import struct
import time

from . import trace

N_GOLDENS = 78


def fixture_names() -> list:
    """Workload names as the per-layer metrics spell them."""
    return [name for name, _ in _SPECS]


_SPECS = [
    ("circles_vs_rects.xor", (None, "xor")),
    ("asia.union", ("benchmarks/asia.geojson", "union")),
    ("grid.xor", (None, "xor")),
    ("states_source.union", ("benchmarks/states_source.geojson", "union")),
    ("random_triangles.xor", (None, "xor")),
    ("issue96.intersection", ("generic_test_cases/issue96.geojson", "intersection")),
    ("many_rects.union", ("generic_test_cases/many_rects.geojson", "union")),
    ("hole_hole.union", ("benchmarks/hole_hole.geojson", "union")),
]


def _digest(mp) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", len(mp)))
    for poly in mp:
        h.update(struct.pack("<q", len(poly)))
        for ring in poly:
            h.update(struct.pack("<q", len(ring)))
            for x, y in ring:
                h.update(struct.pack("<dd", x, y))
    return h.hexdigest()


class KernelWorkload:
    name = "kernel"
    uses_ray = False

    def __init__(self, seed: int, repo_root: str):
        self.seed = seed
        self.fixtures = os.path.join(repo_root, "tests", "fixtures")

    def begin(self) -> None:
        pass

    def setup(self) -> None:
        from rust_geo_booleanop_ray.geom import boolean_op
        from rust_geo_booleanop_ray.sources.generators import (
            generate_circles_vs_rects,
            generate_grid_polygons,
            generate_random_triangles,
        )
        from rust_geo_booleanop_ray.sources.geojson_fixtures import (
            apply_test_operation,
            load_fixture,
            multipolygons_equal,
        )

        passed = total = 0
        for path in sorted(glob.glob(os.path.join(self.fixtures, "generic_test_cases", "*.geojson"))):
            case = load_fixture(path)
            for exp in case.expected:
                total += 1
                res = apply_test_operation(boolean_op, case.subject, case.clipping, exp.op_tag)
                passed += multipolygons_equal(res, exp.result)
        if (passed, total) != (N_GOLDENS, N_GOLDENS):
            raise RuntimeError(f"goldens: {passed}/{total} pass, {N_GOLDENS}/{N_GOLDENS} required")

        generated = {
            "random_triangles.xor": (
                generate_random_triangles(10, 2 * self.seed + 1),
                generate_random_triangles(10, 2 * self.seed + 2),
            ),
            "grid.xor": generate_grid_polygons(),
            "circles_vs_rects.xor": generate_circles_vs_rects(),
        }
        self.ops = []
        for name, (path, op) in _SPECS:
            if path is None:
                subject, clipping = generated[name]
            else:
                case = load_fixture(os.path.join(self.fixtures, path))
                subject, clipping = case.subject, case.clipping
            self.ops.append((name, subject, clipping, op))
        self.expected = [_digest(boolean_op(s, c, op)) for _, s, c, op in self.ops]

    def run(self, warm: bool = False) -> dict:
        from rust_geo_booleanop_ray.geom import boolean_op

        t0 = time.perf_counter()
        first = None
        results = []
        for name, subject, clipping, op in self.ops:
            results.append(trace.traced_call(f"kernel.{name}", boolean_op, (subject, clipping, op)))
            if first is None:
                first = time.perf_counter() - t0
        return {"rows": len(self.ops), "first_batch_s": first, "results": results}

    def check(self, res: dict) -> str | None:
        for (name, *_), mp, want in zip(self.ops, res["results"], self.expected):
            if _digest(mp) != want:
                return f"{name}: output digest differs from set-up"
        return None

    def cleanup(self, res: dict | None) -> None:
        pass

    def close(self) -> None:
        pass
