"""Tests for ball queries, plugin-graph config, and failure injection."""

import json

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    GeometrySet,
    PluginHost,
    RecordingConsumer,
    SubsamplePipe,
    ball_polyhedron,
    ball_query,
)
from repro.core.queries import selectivity
from repro.db import MemoryStorage, Page, PageCodec
from repro.db.stats import QueryStats
from repro.viz.plugin import Producer


class TestBallQueries:
    def test_polytope_contains_ball(self):
        rng = np.random.default_rng(0)
        center = rng.normal(size=3)
        poly = ball_polyhedron(center, 0.5, facets=16)
        directions = rng.normal(size=(200, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        surface = center + 0.5 * directions
        assert poly.contains_points(surface).all()

    def test_polytope_is_tight(self):
        # Points well outside the ball are excluded.
        center = np.zeros(3)
        poly = ball_polyhedron(center, 1.0, facets=64)
        rng = np.random.default_rng(1)
        directions = rng.normal(size=(200, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        outside = center + 1.5 * directions
        assert poly.contains_points(outside).mean() < 0.2

    def test_exact_against_brute_force(self, kd_index, clustered_points_3d):
        rng = np.random.default_rng(2)
        for _ in range(5):
            center = rng.normal([1.0, 1.0, 0.5], 1.0)
            radius = rng.uniform(0.2, 1.0)
            rows, stats = ball_query(kd_index, center, radius)
            truth = (
                np.linalg.norm(clustered_points_3d - center, axis=1) <= radius
            ).sum()
            assert stats.rows_returned == int(truth)

    def test_more_facets_fewer_candidates(self, kd_index):
        center = np.array([0.0, 0.0, 0.0])
        _, coarse = ball_query(kd_index, center, 0.8, facets=6)
        _, fine = ball_query(kd_index, center, 0.8, facets=64)
        assert fine.extra.get("candidates", 0) <= coarse.extra.get("candidates", 1)

    def test_validation(self, kd_index):
        with pytest.raises(ValueError):
            ball_polyhedron(np.zeros(3), -1.0)
        with pytest.raises(ValueError):
            ball_polyhedron(np.zeros(3), 1.0, facets=2)

    def test_selectivity_helper(self):
        stats = QueryStats()
        stats.rows_returned = 25
        assert selectivity(stats, 100) == 0.25
        assert selectivity(stats, 0) == 0.0


class _StaticProducer(Producer):
    """Test producer emitting a fixed number of points on camera events."""

    def __init__(self, count=10):
        self.count = int(count)

    def initialize(self, registry):
        super().initialize(registry)
        registry.camera_box_changed.subscribe(self._on_camera)
        return True

    def _on_camera(self, camera):
        self._latest = GeometrySet(points=np.zeros((self.count, 3)))
        self.registry.signal_production(self)

    def get_output(self):
        return getattr(self, "_latest", None)


class TestPluginGraphConfig:
    FACTORIES = {
        "static": _StaticProducer,
        "subsample": SubsamplePipe,
        "recorder": RecordingConsumer,
    }

    def _config(self):
        return {
            "plugins": [
                {"name": "source", "type": "static", "args": {"count": 50}},
                {
                    "name": "limiter",
                    "type": "subsample",
                    "args": {"max_points": 10},
                    "inputs": ["source"],
                },
                {"name": "screen", "type": "recorder", "inputs": ["limiter"]},
            ]
        }

    def test_from_dict(self):
        host = PluginHost.from_config(self._config(), self.FACTORIES)
        host.start()
        from repro import Camera

        host.set_camera(Camera(Box.unit(3)))
        host.frame()
        screen = host.plugin_of("screen")
        assert screen.frames[0].num_points == 10  # limited by the pipe
        host.shutdown()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(self._config()))
        host = PluginHost.from_config(str(path), self.FACTORIES)
        assert host.plugin_of("limiter").max_points == 10

    def test_unknown_type(self):
        config = {"plugins": [{"name": "x", "type": "warp_drive"}]}
        with pytest.raises(KeyError):
            PluginHost.from_config(config, self.FACTORIES)


class TestFailureInjection:
    def test_truncated_page_bytes(self):
        page = Page(page_id=0, start_row=0, columns={"a": np.arange(50.0)})
        data = PageCodec.encode(page)
        with pytest.raises(Exception):
            PageCodec.decode(data[: len(data) // 2])

    def test_bit_flip_in_column_count(self):
        page = Page(page_id=0, start_row=0, columns={"a": np.arange(5.0)})
        raw = bytearray(PageCodec.encode(page))
        raw[20] = 0xFF  # clobber the column count field
        with pytest.raises(Exception):
            PageCodec.decode(bytes(raw))

    def test_storage_missing_page_mid_scan(self):
        db = Database(MemoryStorage(), buffer_pages=None)
        table = db.create_table("t", {"a": np.arange(100.0)}, rows_per_page=10)
        db.cold_cache()
        # Remove a page behind the engine's back.
        del db.storage._blobs["t"][5]
        with pytest.raises(KeyError):
            table.read_column("a")

    def test_partial_file_on_disk(self, tmp_path):
        db = Database.on_disk(tmp_path)
        table = db.create_table("t", {"a": np.arange(100.0)}, rows_per_page=10)
        db.cold_cache()
        victim = tmp_path / "t" / "00000003.page"
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 3])
        with pytest.raises(Exception):
            table.read_page(3)
