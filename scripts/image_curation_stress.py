"""Image-curation stress: the composed decode→gate→dedup→bucket
pipeline at 50× the catalog corpus (the image-payload axis at
volume — one REAL decode per image drives both curation signals).

    python scripts/image_curation_stress.py --n-images 100000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Image curation stress")
    parser.add_argument("--n-images", type=int, default=100_000)
    args = parser.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from rust_geo_booleanop_ray.pipelines.catalog.image import q_image_curation

    t0 = time.time()
    rows = q_image_curation("/root/testdata/sf0.001", n_images=args.n_images).take_all()
    wall = round(time.time() - t0, 2)
    print(
        json.dumps(
            {
                "n_images": args.n_images,
                "sec": wall,
                "images_per_sec": round(args.n_images / wall, 1),
                "aspects": {r["aspect"]: r["n"] for r in rows},
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
