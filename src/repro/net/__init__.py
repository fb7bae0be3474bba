"""Networked execution: process shard workers and the TCP front door.

The paper's deployment is a *distributed* system -- a web front end over
a cluster of database servers, each holding kd-subtree partitions of the
sky (§3.2's graph-partitioned layout).  This package is the
reproduction's version of that topology, in two layers that share one
length-prefixed binary protocol (:mod:`repro.net.wire`):

* :mod:`repro.net.pool` / :mod:`repro.net.worker` -- the process
  transport of the one scatter-gather coordinator
  (:class:`~repro.shard.ShardCoordinator`): :class:`ShardWorkerPool`
  runs one worker **process** per kd-subtree shard.  Each worker owns
  its shard's database, zone maps, caches, and fault injector, and
  executes with its own GIL, so scatter-gather scales with cores
  instead of threads.  Routing, the gather and the write router are the
  coordinator's, shared with the thread transport; pass
  ``transport="process"`` to :class:`~repro.shard.ScatterGatherExecutor`
  to get one.
* :mod:`repro.net.server` / :mod:`repro.net.client` -- an asyncio TCP
  server in front of :class:`~repro.service.QueryService` (per-tenant
  sessions, admission backpressure, streamed results, graceful drain)
  and the synchronous client plus network replay driver.

Every hop returns one record, :class:`~repro.core.planner.PlannedQuery`:
a shard worker's answer to the pool, and the service's outcome to a TCP
client, both through the one codec of :mod:`repro.net.wire`.
"""

from repro.net.wire import (
    Frame,
    FrameDecoder,
    FrameError,
    MessageType,
    SocketChannel,
)
from repro.net.pool import ShardWorkerPool, WorkerDied
from repro.net.worker import WorkerConfig, worker_main
from repro.net.server import QueryServer, serve
from repro.net.client import QueryClient, replay_over_network

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameError",
    "MessageType",
    "SocketChannel",
    "ShardWorkerPool",
    "WorkerDied",
    "WorkerConfig",
    "worker_main",
    "QueryServer",
    "serve",
    "QueryClient",
    "replay_over_network",
]
