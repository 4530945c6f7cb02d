"""Catalog family modules, one per query family (spatial, agg, windows,
joins, dedup, text, ann, image, graph; ``_shared`` holds what two or
more families use).

Each family module ends with a ``QUERIES`` table of ``_shared.Query``
entries (plan, oracle, aliases) for the queries it defines;
``pipelines.queries`` merges the tables into the one query registry.
"""
