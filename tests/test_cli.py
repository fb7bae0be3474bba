"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import main
from repro.core.engines import ENGINES


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CIDR 2007" in out
        assert "repro.db" in out

    def test_bench_hint(self, capsys):
        assert main(["bench-hint"]) == 0
        out = capsys.readouterr().out
        assert "benchmark-only" in out

    def test_demo_small(self, capsys):
        assert main(["demo", "--rows", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 selection" in out
        assert "full scan" in out
        assert "10-NN" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_replay_and_serve_parse_the_serving_flags_alike(self, monkeypatch):
        shared = [
            "rows", "seed", "buffer_pages", "index_cache_mb", "shards", "transport",
            "engine", "workers", "queue_depth", "deadline_ms", "batch", "batch_delay_ms",
        ]
        argv = [
            "--rows", "1234", "--seed", "7", "--buffer-pages", "64",
            "--index-cache-mb", "1.5", "--shards", "2", "--transport", "process",
            "--engine", "bitmap", "--workers", "3", "--queue-depth", "5",
            "--deadline-ms", "250", "--batch", "4", "--batch-delay-ms", "2.5",
        ]
        parsed = {"replay": [], "serve": []}
        for command, calls in parsed.items():
            def capture(args, calls=calls):
                calls.append(args)
                return 0

            monkeypatch.setattr(cli, f"_cmd_{command}", capture)
            assert main([command, *argv]) == 0
            assert main([command]) == 0
        (replay_set, replay_default), (serve_set, serve_default) = parsed.values()
        for name in shared:
            assert getattr(replay_set, name) == getattr(serve_set, name), name
            assert getattr(replay_default, name) == getattr(serve_default, name), name
            assert getattr(replay_set, name) != getattr(replay_default, name), name


REPLAY = ["replay", "--rows", "2000", "--queries", "12", "--verify"]


def _engine_counts(out: str) -> dict[str, int]:
    """The metrics report's per-engine line, as ``{engine: answers}``."""
    line = next(
        line for line in out.splitlines() if line.strip().startswith("planner ")
    )
    words = line.split()[1:]
    return {name: int(count) for name, count in zip(words[::2], words[1::2])}


class TestReplay:
    @pytest.mark.parametrize("engine", ["auto", *(e.name for e in ENGINES)])
    def test_every_engine_replays_exactly(self, capsys, engine):
        assert main([*REPLAY, "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "row-for-row mismatches: 0" in out
        counts = _engine_counts(out)
        assert set(counts) == {e.name for e in ENGINES}
        if engine == "auto":
            assert sum(counts.values()) > 0
        else:
            assert counts[engine] > 0
            assert sum(counts.values()) == counts[engine]

    def test_sharded_replay_counts_shard_answers(self, capsys):
        assert main([*REPLAY, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "row-for-row mismatches: 0" in out
        assert "per-worker utilization (transport=thread)" in out
        assert sum(_engine_counts(out).values()) > 0
