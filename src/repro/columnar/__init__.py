"""Columnar ingest: structure-of-arrays cluster polls.

A tree ingest path re-materializes a Python object per XML element
every polling interval -- "incoming XML must be parsed" (§2.3.1) -- and
then walks those objects one host at a time to summarize and archive.
This package keeps one poll as a handful of contiguous numpy arrays
instead, so the per-metric work collapses into vectorized kernels:

- :mod:`repro.columnar.layout` -- the :class:`ColumnarCluster`
  structure-of-arrays and the :class:`InternPool` that maps the tiny
  closed vocabularies (metric names, units, TYPE/SLOPE enums) to dense
  integer ids;
- :mod:`repro.columnar.summarize` -- vectorized eager summarization and
  the columnar delta-summary tracker, both bit-identical to the scalar
  reference paths in :mod:`repro.core.summarize` /
  :mod:`repro.core.delta_summary`.

The N-level gmetad ingests every full-form cluster dump this way; the
1-level design keeps the tree path.  The two charge the same CPU and
serve the same bytes, which the twin suites pin against a tree-ingest
reference daemon.
"""

from repro.columnar.layout import (
    ColumnarCluster,
    ColumnarDocument,
    InternPool,
    columns_from_cluster,
)
from repro.columnar.summarize import ColumnarSummaryTracker, summarize_columns

__all__ = [
    "ColumnarCluster",
    "ColumnarDocument",
    "InternPool",
    "ColumnarSummaryTracker",
    "columns_from_cluster",
    "summarize_columns",
]
