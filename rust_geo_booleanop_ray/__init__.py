"""rust_geo_booleanop_ray — a Ray-Data-native spatial-join + tiling engine.

Brand-new engine (not a port) providing the query and data-processing
capabilities of the reference polygon-clipping library (21re/
rust-geo-booleanop) re-expressed Ray-Data-first:

- ``geom``      — pure-Python Martinez–Rueda boolean-op kernel (exact
                  predicates, sweep line, contour assembly).
- ``sources``   — GeoJSON fixture I/O, Arrow geometry codec, synthetic
                  Lance-shaped image table.
- ``stages``    — stateless map_batches stages: boolean ops, footprint
                  derivation, cell indexing, spatial join + clip, tiling,
                  kNN, dedup, text analysis, ANN.
- ``pipelines`` — end-to-end pipelines and the driver-facing queries.
- ``state``     — per-partition lineage checkpoints and resume logic.

Never calls ray.init()/ray.shutdown(); sessions are owned by callers.
"""

__version__ = "0.1.0"
