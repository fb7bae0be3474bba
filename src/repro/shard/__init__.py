"""Sharded scatter-gather execution over kd-subtree partitions.

The paper's post-order kd-tree numbering (§3.2) makes every subtree a
contiguous id range, which this package exploits as a partitioning
function: :class:`KdPartitioner` cuts a table into N spatially coherent
shards (each with its own database, buffer pool, and locally built
kd-tree index), :class:`ShardRouter` prunes whole shards against a query
polyhedron with Figure 4's box classification, and one
:class:`ShardCoordinator` scatters each query's member groups to the
surviving shards and gathers their answers.  Two transports carry the
groups: :class:`ScatterGatherExecutor` runs the shards on threads in this
process (and adds a frontier-merged, exact k-NN across shard borders --
§3.3 one level up), and :class:`~repro.net.pool.ShardWorkerPool` runs
one worker process per shard.
"""

from repro.shard.coordinator import ShardAborted, ShardCoordinator
from repro.shard.executor import ScatterGatherExecutor
from repro.shard.knn import ShardedKnnResult, scatter_gather_knn
from repro.shard.partitioner import (
    KdPartitioner,
    Shard,
    ShardSet,
    ShardSpec,
    build_shard,
)
from repro.shard.router import RoutingDecision, ShardRouter

__all__ = [
    "KdPartitioner",
    "RoutingDecision",
    "ScatterGatherExecutor",
    "Shard",
    "ShardAborted",
    "ShardCoordinator",
    "ShardRouter",
    "ShardSet",
    "ShardSpec",
    "ShardedKnnResult",
    "build_shard",
    "scatter_gather_knn",
]
