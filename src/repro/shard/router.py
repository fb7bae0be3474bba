"""Shard routing: Figure 4's box classification lifted to shard granularity.

Berriman et al.'s survey-scale lesson is that the big win at scale comes
from pruning whole partitions before touching a page.  The router does
exactly that: every shard carries the bounding box of its kd-subtree, so
classifying N boxes against the query polyhedron (N = shard count, a
handful of O(d·m) tests) decides which shards can possibly contribute --
an OUTSIDE shard is pruned without consulting its planner, buffer pool,
or storage.

Two box families are available, mirroring the kd-tree's own choice: the
*partition* boxes tile space exactly (and drive the k-NN distance
bounds), while the *tight* boxes hug the actual rows and prune harder on
clustered data.  Both are sound: every row of a shard lies inside both
of its boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import Polyhedron
from repro.shard.partitioner import Shard, ShardSet

__all__ = ["RoutingDecision", "ShardRouter"]


@dataclass
class RoutingDecision:
    """Which shards a query must visit, and which it provably need not."""

    dispatched: list[tuple[Shard, BoxRelation]] = field(default_factory=list)
    pruned: list[Shard] = field(default_factory=list)

    @property
    def shards_dispatched(self) -> int:
        """Shards the query will actually run on."""
        return len(self.dispatched)

    @property
    def shards_pruned(self) -> int:
        """Shards rejected by box classification alone (zero I/O)."""
        return len(self.pruned)


class ShardRouter:
    """Classifies shard boxes against queries and picks the targets.

    ``use_tight_boxes`` selects the pruning family: tight boxes (the
    default) reject more shards on clustered data; partition boxes
    reproduce the pure space-tiling behavior of the paper's Figure 4.

    The router reads only shard geometry, so it routes a set of built
    shards and a process pool's shard specs alike; the coordinator that
    owns it reports every insert through :meth:`note_delta`.
    """

    def __init__(self, shard_set: ShardSet, use_tight_boxes: bool = True):
        self.shard_set = shard_set
        self.use_tight_boxes = use_tight_boxes
        #: shard id -> bounding box of the rows inserted since its last merge.
        self._delta_boxes: dict[int, Box] = {}

    def note_delta(self, shard_id: int, box: Box | None) -> None:
        """Stretch a shard's pruning box over newly inserted rows.

        ``None`` drops the stretch once a merge has folded the delta
        into the shard's main rows (and refreshed its tight box).
        """
        if box is None:
            self._delta_boxes.pop(shard_id, None)
            return
        old = self._delta_boxes.get(shard_id)
        self._delta_boxes[shard_id] = box if old is None else old.union_bounds(box)

    def _live(self, shard: Shard) -> bool:
        return shard.num_rows > 0 or shard.shard_id in self._delta_boxes

    def box_of(self, shard: Shard) -> Box:
        """The pruning box of a shard under the configured family.

        Merge-on-read: a shard with pending delta inserts stretches its
        pruning box to cover them.  Delta rows are routed into the shard
        by partition-box containment but may fall outside the *tight*
        box of the main rows (built before they arrived); without the
        stretch, a query touching only delta rows could wrongly prune
        the shard.  The stretch also keeps the INSIDE shortcut sound:
        INSIDE now proves every delta row inside the polyhedron too.
        The stretch covers every row inserted since the last merge, so
        it stays sound when some of them are deleted again.
        """
        box = shard.tight_box if self.use_tight_boxes else shard.partition_box
        delta_box = self._delta_boxes.get(shard.shard_id)
        return box if delta_box is None else box.union_bounds(delta_box)

    def route_polyhedron(self, polyhedron: Polyhedron) -> RoutingDecision:
        """Split the shard set into dispatched and pruned for one query.

        INSIDE and PARTIAL shards are dispatched (their own planners
        resolve the residual work); OUTSIDE shards are pruned.  The
        relation is forwarded so an executor could, e.g., skip the
        selectivity probe on an INSIDE shard.
        """
        decision = RoutingDecision()
        for shard in self.shard_set:
            if not self._live(shard):
                decision.pruned.append(shard)
                continue
            relation = polyhedron.classify_box(self.box_of(shard))
            if relation is BoxRelation.OUTSIDE:
                decision.pruned.append(shard)
            else:
                decision.dispatched.append((shard, relation))
        return decision

    def order_by_distance(self, point) -> list[tuple[float, Shard]]:
        """Shards with lower-bound distances to ``point``, ascending.

        The bound is the box's min-distance -- zero for the shard(s)
        whose box contains the point -- and is the frontier key of the
        scatter-gather k-NN: a shard whose bound is not below the
        current k-th distance can be pruned outright (§3.3's boundary
        logic applied across shard borders).
        """
        ordered = [
            (self.box_of(shard).min_distance_to_point(point), shard)
            for shard in self.shard_set
            if self._live(shard)
        ]
        ordered.sort(key=lambda pair: (pair[0], pair[1].shard_id))
        return ordered
