"""repro: spatial indexing of large multidimensional databases.

A faithful, self-contained reproduction of Csabai et al., *Spatial
Indexing of Large Multidimensional Databases* (CIDR 2007): in-database
multidimensional spatial indexes (layered uniform grid, balanced
post-order kd-tree, sampled Voronoi tessellation), the boundary-point
k-NN search, the scientific applications built on them (basin spanning
tree clustering, k-NN photometric redshifts, spectral similarity
search), and the adaptive visualization pipeline -- all over a small
paged column-store engine with page-level I/O accounting.

Quickstart::

    import numpy as np
    from repro import Database, KdTreeIndex, Polyhedron, sdss_color_sample

    sample = sdss_color_sample(100_000, seed=1)
    db = Database.in_memory()
    index = KdTreeIndex.build(
        db, "magnitudes", sample.columns(), dims=["u", "g", "r", "i", "z"]
    )
    rows, stats = index.query_box(some_box)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.db import (
    Col,
    CorruptPageError,
    Database,
    FaultInjector,
    FaultyStorage,
    LoggedStorage,
    RetryPolicy,
    StorageFault,
    TransientIOError,
    WriteFault,
    aggregate_scan,
    attach_database,
    count_rows,
    expression_to_polyhedron,
    full_scan,
    parse_where,
    save_catalog,
)
from repro.geometry import Box, Halfspace, Polyhedron, Whitener
from repro.archive import SpectrumArchive
from repro.core import (
    QueryPlanner,
    RTreeIndex,
    KdTreeIndex,
    LayeredGridIndex,
    TableSampleBaseline,
    VoronoiIndex,
    ball_polyhedron,
    ball_query,
    hybrid_query,
    linear_relaxations,
    knn_best_first,
    knn_boundary_points,
    knn_brute_force,
    polyhedron_full_scan,
    selectivity,
)
from repro.tessellation import (
    DelaunayEdgeStore,
    DelaunayGraph,
    DelaunayPyramid,
    density_from_volumes,
    voronoi_volume_estimates,
)
from repro.datasets import (
    GaussianMixtureField,
    QueryWorkload,
    SpectrumTemplates,
    sky_survey_sample,
    make_photoz_dataset,
    sdss_color_sample,
)
from repro.ml import (
    ConvexHullSelector,
    KnnClassifier,
    KdTreeOutlierDetector,
    KnnPolyRedshiftEstimator,
    VoronoiOutlierDetector,
    PrincipalComponents,
    TemplateFitEstimator,
    basin_spanning_tree,
    cluster_class_agreement,
    clusters_from_parents,
    merge_small_clusters,
    regression_report,
    retrieval_precision,
)
from repro.service import (
    AdmissionRejected,
    DeadlineExceeded,
    QueryFault,
    QueryService,
    replay_workload,
)
from repro.shard import (
    KdPartitioner,
    ScatterGatherExecutor,
    build_shard,
)
from repro.net import (
    QueryClient,
    QueryServer,
    WorkerDied,
    replay_over_network,
)
from repro.ingest import (
    DELTA_BASE,
    DeltaTier,
    IngestWal,
    MergeDaemon,
    merge_table,
)
from repro.bitmap import BitmapIndex
from repro.vectype import NativeBinaryCodec, UdtPickleCodec, VectorColumn
from repro.viz import (
    AdaptivePointCloudProducer,
    ClipBoxPipe,
    ColorByDensityPipe,
    SubsamplePipe,
    Camera,
    DelaunayEdgeProducer,
    GeometrySet,
    KdBoxProducer,
    PluginHost,
    RecordingConsumer,
    VoronoiCellProducer,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine
    "Database",
    "Col",
    "full_scan",
    "expression_to_polyhedron",
    "LoggedStorage",
    "parse_where",
    "save_catalog",
    "attach_database",
    # ingest (the write path)
    "DELTA_BASE",
    "DeltaTier",
    "IngestWal",
    "MergeDaemon",
    "merge_table",
    # faults & recovery
    "StorageFault",
    "TransientIOError",
    "CorruptPageError",
    "WriteFault",
    "FaultInjector",
    "FaultyStorage",
    "RetryPolicy",
    # geometry
    "Box",
    "Halfspace",
    "Polyhedron",
    "Whitener",
    # indexes
    "KdTreeIndex",
    "LayeredGridIndex",
    "TableSampleBaseline",
    "VoronoiIndex",
    "knn_boundary_points",
    "knn_best_first",
    "knn_brute_force",
    "ball_polyhedron",
    "ball_query",
    "hybrid_query",
    "linear_relaxations",
    "polyhedron_full_scan",
    "selectivity",
    "QueryPlanner",
    "RTreeIndex",
    "BitmapIndex",
    "ConvexHullSelector",
    "KnnClassifier",
    "aggregate_scan",
    "count_rows",
    "SpectrumArchive",
    "KdTreeOutlierDetector",
    "VoronoiOutlierDetector",
    # tessellation
    "DelaunayGraph",
    "DelaunayEdgeStore",
    "DelaunayPyramid",
    "voronoi_volume_estimates",
    "density_from_volumes",
    # datasets
    "sdss_color_sample",
    "GaussianMixtureField",
    "sky_survey_sample",
    "SpectrumTemplates",
    "make_photoz_dataset",
    "QueryWorkload",
    # query service
    "QueryService",
    "DeadlineExceeded",
    "AdmissionRejected",
    "QueryFault",
    "replay_workload",
    # sharded execution
    "KdPartitioner",
    "ScatterGatherExecutor",
    "build_shard",
    # networked execution
    "WorkerDied",
    "QueryServer",
    "QueryClient",
    "replay_over_network",
    # analysis
    "PrincipalComponents",
    "KnnPolyRedshiftEstimator",
    "TemplateFitEstimator",
    "basin_spanning_tree",
    "clusters_from_parents",
    "merge_small_clusters",
    "cluster_class_agreement",
    "regression_report",
    "retrieval_precision",
    # vector type
    "NativeBinaryCodec",
    "UdtPickleCodec",
    "VectorColumn",
    # visualization
    "Camera",
    "GeometrySet",
    "PluginHost",
    "AdaptivePointCloudProducer",
    "KdBoxProducer",
    "DelaunayEdgeProducer",
    "VoronoiCellProducer",
    "RecordingConsumer",
    "SubsamplePipe",
    "ClipBoxPipe",
    "ColorByDensityPipe",
]
