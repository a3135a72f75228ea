"""Checkpoint-shard runs: partition, claims, stealing, canonical merge.

The headline contract: however a grid was split — serial, one shard
stealing everything, or N shards each running their bin — the merged
checkpoint and report are byte-identical to a single uninterrupted
serial run. Clocks are frozen (wall and CPU) so the timing fields in
checkpoint rows cannot differ between schedules.
"""

import json

import pytest

from repro.core import BenchmarkRunner
from repro.core.resilience import FaultPlan, RetryPolicy
from repro.core.results import save_report
from repro.core.sched import (
    ClaimBoard,
    claims_directory,
    load_shard_checkpoints,
    merge_checkpoint_states,
    missing_cells,
    report_from_state,
    shard_checkpoint_path,
    write_canonical_checkpoint,
)

from tests.core.test_parallel import _registries, frozen_clock  # noqa: F401


def _serial_reference(tmp_path, **runner_kwargs):
    """One serial checkpointed run: (report bytes, checkpoint bytes)."""
    algorithms, datasets = (
        runner_kwargs.pop("registries", None) or _registries()
    )
    report_path = tmp_path / "serial_report.json"
    checkpoint_path = tmp_path / "serial_checkpoint.jsonl"
    runner = BenchmarkRunner(
        algorithms, datasets, n_folds=2, seed=0,
        checkpoint_path=checkpoint_path, **runner_kwargs,
    )
    save_report(runner.run(), report_path)
    return report_path.read_bytes(), checkpoint_path.read_bytes()


def _run_shard(tmp_path, spec, steal=True, registries=None, **runner_kwargs):
    algorithms, datasets = registries or _registries()
    runner = BenchmarkRunner(
        algorithms, datasets, n_folds=2, seed=0,
        checkpoint_path=tmp_path / "shards",
        shard=spec, shard_steal=steal, **runner_kwargs,
    )
    runner.run()
    return runner


def _merge_bytes(tmp_path):
    """Merge shard checkpoints: (report bytes, checkpoint bytes)."""
    states = load_shard_checkpoints(tmp_path / "shards")
    merged = merge_checkpoint_states(states)
    assert not missing_cells(merged)
    merged_checkpoint = tmp_path / "merged_checkpoint.jsonl"
    merged_report = tmp_path / "merged_report.json"
    write_canonical_checkpoint(merged, merged_checkpoint)
    save_report(report_from_state(merged), merged_report)
    return merged_report.read_bytes(), merged_checkpoint.read_bytes()


class TestShardMergeByteIdentity:
    def test_two_shards_no_steal(self, tmp_path, frozen_clock):  # noqa: F811
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        shard0 = _run_shard(tmp_path, "0/2", steal=False)
        shard1 = _run_shard(tmp_path, "1/2", steal=False)
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint
        # Strict partition: both shards ran something, neither stole.
        for runner in (shard0, shard1):
            snapshot = runner.metrics.snapshot()
            assert snapshot["sched.cells_scheduled"] > 0
            assert snapshot.get("sched.steals", 0) == 0

    def test_single_shard_steals_the_rest(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        # Only shard 0 of 2 ever runs: after draining its own bin it must
        # claim and execute every cell of the absent sibling's bin.
        runner = _run_shard(tmp_path, "0/2", steal=True)
        snapshot = runner.metrics.snapshot()
        assert snapshot["sched.cells_scheduled"] == 6
        assert snapshot["sched.steals"] > 0
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_steal_respects_completed_sibling_work(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        _run_shard(tmp_path, "1/2", steal=False)
        # Shard 0 arrives late with stealing on: sibling cells are done
        # (visible in shard-1.jsonl and claimed), so nothing to steal.
        runner = _run_shard(tmp_path, "0/2", steal=True)
        assert runner.metrics.snapshot().get("sched.steals", 0) == 0
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_steal_skips_claimed_but_incomplete_cells(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        # A sibling claimed a cell and then died before finishing it: the
        # claim stands, the cell must NOT be stolen, and the merge must
        # report it missing rather than silently dropping it.
        shards_dir = tmp_path / "shards"
        board = ClaimBoard(claims_directory(shards_dir), "shard-1")
        algorithms, datasets = _registries()
        # Claim every cell of every dataset on behalf of the dead sibling
        # except ds0's — shard 0 can then only complete ds0 cells.
        for algorithm in ("FAST", "ALSO"):
            for dataset in ("ds1", "ds2"):
                assert board.claim(algorithm, dataset)
        runner = _run_shard(
            tmp_path, "0/2", steal=True,
            registries=(algorithms, datasets),
        )
        done = runner.metrics.snapshot()["sched.cells_scheduled"]
        assert done == 2  # only the unclaimed ds0 cells
        states = load_shard_checkpoints(shards_dir)
        merged = merge_checkpoint_states(states)
        missing = missing_cells(merged)
        assert len(missing) == 4
        assert all(dataset in ("ds1", "ds2") for _, dataset in missing)

    def test_three_shards_cover_grid(self, tmp_path, frozen_clock):  # noqa: F811
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        for index in range(3):
            _run_shard(tmp_path, f"{index}/3", steal=False)
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint


class TestShardFaultsAndResume:
    def test_failures_merge_identically(self, tmp_path, frozen_clock):  # noqa: F811
        serial_report, serial_checkpoint = _serial_reference(
            tmp_path, registries=_registries(broken=True)
        )
        _run_shard(
            tmp_path, "0/2", steal=False,
            registries=_registries(broken=True),
        )
        _run_shard(
            tmp_path, "1/2", steal=False,
            registries=_registries(broken=True),
        )
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_fault_injection_with_retries(self, tmp_path, frozen_clock):  # noqa: F811
        def fault_setup():
            plan = (
                FaultPlan()
                .fail("ds1", "FAST", attempts=(1,))  # retried, recovers
                .fail("ds2", "ALSO", attempts=None)  # exhausts retries
            )
            policy = RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0,
                sleep=lambda _: None,
            )
            return {"fault_injector": plan, "retry_policy": policy}

        serial_report, serial_checkpoint = _serial_reference(
            tmp_path, **fault_setup()
        )
        _run_shard(tmp_path, "0/2", steal=True, **fault_setup())
        _run_shard(tmp_path, "1/2", steal=True, **fault_setup())
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_load_failures_shard_and_merge(self, tmp_path, frozen_clock):  # noqa: F811
        def fault_setup():
            return {
                "fault_injector": FaultPlan().fail(
                    "ds1", attempts=None, stage="load"
                )
            }

        serial_report, serial_checkpoint = _serial_reference(
            tmp_path, **fault_setup()
        )
        _run_shard(tmp_path, "0/2", steal=True, **fault_setup())
        _run_shard(tmp_path, "1/2", steal=True, **fault_setup())
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_shard_rerun_resumes_without_rework(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        first = _run_shard(tmp_path, "0/2", steal=True)
        assert first.metrics.snapshot()["sched.cells_scheduled"] == 6
        before = shard_checkpoint_path(tmp_path / "shards", 0).read_bytes()
        # Re-running the same shard resumes from its own file: every cell
        # is already complete, so nothing re-executes and the checkpoint
        # does not grow.
        rerun = _run_shard(tmp_path, "0/2", steal=True)
        assert rerun.metrics.counter("cells_total").value == 0
        after = shard_checkpoint_path(tmp_path / "shards", 0).read_bytes()
        assert after == before
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    @pytest.mark.parametrize("rerun_with_steal", [False, True])
    def test_completion_gauge_reaches_one(
        self, tmp_path, rerun_with_steal, frozen_clock  # noqa: F811
    ):
        # Progress counts the cells this shard commits, not the grid:
        # a no-steal shard finishing its bin is done, and so is a
        # resumed shard whose only work is the cells it steals.
        runner = _run_shard(tmp_path, "0/2", steal=False)
        if rerun_with_steal:
            runner = _run_shard(tmp_path, "0/2", steal=True)
            assert runner.metrics.snapshot()["sched.steals"] > 0
        assert runner.metrics.snapshot()["grid_completion"] == 1.0

    def test_shard_with_workers_matches_serial(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        serial_report, serial_checkpoint = _serial_reference(tmp_path)
        _run_shard(tmp_path, "0/2", steal=True, workers=3)
        report_bytes, checkpoint_bytes = _merge_bytes(tmp_path)
        assert report_bytes == serial_report
        assert checkpoint_bytes == serial_checkpoint

    def test_rejects_resume_from(self, tmp_path):
        algorithms, datasets = _registries()
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            BenchmarkRunner(
                algorithms, datasets, shard="0/2",
                checkpoint_path=tmp_path / "shards",
                resume_from=tmp_path / "other.jsonl",
            )


class TestMergeEdges:
    def test_mismatched_fingerprints_refuse_to_merge(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        from repro.exceptions import CheckpointMismatchError

        _run_shard(tmp_path, "0/2", steal=False)
        # A sibling from a different grid (different seed) lands in the
        # same directory: merging must refuse, not mix grids.
        algorithms, datasets = _registries()
        other = BenchmarkRunner(
            algorithms, datasets, n_folds=2, seed=99,
            checkpoint_path=tmp_path / "other",
            shard="1/2", shard_steal=False,
        )
        other.run()
        own = (tmp_path / "other" / "shard-1.jsonl").read_bytes()
        (tmp_path / "shards" / "shard-1.jsonl").write_bytes(own)
        states = load_shard_checkpoints(tmp_path / "shards")
        with pytest.raises(CheckpointMismatchError):
            merge_checkpoint_states(states)

    def test_merge_cli_roundtrip(self, tmp_path, frozen_clock):  # noqa: F811
        import io

        from repro.core.cli import main

        # Reference: one un-sharded CLI run with the same flags.
        serial_checkpoint = tmp_path / "serial.jsonl"
        serial_report = tmp_path / "serial.json"
        base = [
            "--algorithms", "ECTS", "ECO-K",
            "--datasets", "PowerCons", "Biological",
            "--scale", "0.05", "--folds", "2",
        ]
        out = io.StringIO()
        assert main(
            base + [
                "--checkpoint", str(serial_checkpoint),
                "--save-report", str(serial_report),
            ],
            out,
        ) == 0
        shards = tmp_path / "shards"
        for index in range(2):
            out = io.StringIO()
            assert main(
                base + [
                    "--shard", f"{index}/2", "--no-steal",
                    "--checkpoint", str(shards),
                ],
                out,
            ) == 0
            assert f"shard {index}/2:" in out.getvalue()
        merged_checkpoint = tmp_path / "merged.jsonl"
        merged_report = tmp_path / "merged.json"
        out = io.StringIO()
        assert main(
            [
                "merge-checkpoints", str(shards),
                "--output", str(merged_checkpoint),
                "--save-report", str(merged_report),
            ],
            out,
        ) == 0
        assert "merged 2 shard checkpoints" in out.getvalue()
        assert merged_checkpoint.read_bytes() == serial_checkpoint.read_bytes()
        assert merged_report.read_bytes() == serial_report.read_bytes()

    def test_merge_cli_partial_grid_fails_without_flag(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        import io

        from repro.core.cli import main

        _run_shard(tmp_path, "0/2", steal=False)  # shard 1 never ran
        out = io.StringIO()
        assert main(["merge-checkpoints", str(tmp_path / "shards")], out) == 1
        assert "no outcome in any shard" in out.getvalue()
        out = io.StringIO()
        assert main(
            [
                "merge-checkpoints", str(tmp_path / "shards"),
                "--allow-partial",
            ],
            out,
        ) == 0

    def test_merge_cli_empty_directory(self, tmp_path):
        import io

        from repro.core.cli import main

        out = io.StringIO()
        assert main(["merge-checkpoints", str(tmp_path)], out) == 2
        assert "no shard checkpoints" in out.getvalue()

    def test_merge_records_all_checkpoint_lines(
        self, tmp_path, frozen_clock  # noqa: F811
    ):
        # The canonical rebuild has meta + dataset rows + cell rows in
        # dataset-major order, like the serial writer.
        _run_shard(tmp_path, "0/2", steal=True)
        states = load_shard_checkpoints(tmp_path / "shards")
        merged = merge_checkpoint_states(states)
        out_path = tmp_path / "canonical.jsonl"
        write_canonical_checkpoint(merged, out_path)
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        kinds = [record["type"] for record in records[1:]]
        assert kinds == [
            "dataset", "cell", "cell",
            "dataset", "cell", "cell",
            "dataset", "cell", "cell",
        ]
        cell_rows = [r for r in records if r["type"] == "cell"]
        assert all("wall_seconds" in row for row in cell_rows)
