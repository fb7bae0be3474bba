"""The write path: delta ingest, merge-on-read, and out-of-place merges.

The paper's database is frozen at creation -- a faithful snapshot of a
survey data release, but not of the survey itself, which loads nightly.
This package adds the LSM-flavored write tier that opens that scenario:

* :mod:`repro.ingest.delta` -- a small write-optimized delta tier per
  table (inserted rows + delete tombstones) with immutable snapshots,
  matched against a query in one vectorised pass behind a bounding-box
  reject;
* :mod:`repro.ingest.wal` -- the logical write-ahead log, appended
  before any delta mutation is applied and replayable after a crash; it
  and :class:`~repro.db.recovery.LoggedStorage` are one
  :class:`~repro.db.recovery.RecordLog` (one frame format, one reader);
* :mod:`repro.ingest.merge` -- the background merge: drain the delta
  out-of-place into a freshly bulk-loaded kd layout (median-split
  rebuild over old + new points), regenerate zone maps, and swap the
  new generation in atomically under the catalog lock;
* :mod:`repro.ingest.manager` -- per-table ingest state and the
  threshold/daemon plumbing that decides *when* to merge.

Every read path (full scan, kd traversal, batched execution, sharded
scatter-gather, k-NN) merges delta + main at query time with tombstone
suppression; see the corresponding modules for the merge-on-read hooks.
The Voronoi, R-tree and layered-grid indexes apply tombstones only and
raise :class:`~repro.db.errors.StaleIndexError` while inserts are pending.
"""

from repro.ingest.delta import (
    DELTA_BASE,
    SHARD_STRIDE,
    DeltaSnapshot,
    DeltaTier,
    is_delta_id,
)
from repro.ingest.manager import IngestManager, IngestState, MergeDaemon
from repro.ingest.merge import MergeReport, merge_table
from repro.ingest.wal import IngestWal

__all__ = [
    "DELTA_BASE",
    "SHARD_STRIDE",
    "DeltaSnapshot",
    "DeltaTier",
    "IngestManager",
    "IngestState",
    "IngestWal",
    "MergeDaemon",
    "MergeReport",
    "merge_table",
    "is_delta_id",
]
