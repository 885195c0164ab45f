"""Checkpoint/resume: a killed sweep picks up where it stopped.

The contract (DESIGN.md §7.5): the journal is bookkeeping, the cache is
data.  A unit is committed (flush+fsync) only after its signature is
cached; on ``--resume`` only journaled units whose cache entry is still
readable are skipped, so resume can never change results — it only
avoids redoing finished work.
"""

import json

import numpy as np
import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.resilience import ResilienceConfig, RunReport
from repro.exec.sigcache import SignatureCache
from repro.pipeline.collect import CollectionSettings, collect_signatures
from repro.pipeline.journal import (
    RunJournal,
    default_journal_path,
    make_journal,
    unit_key,
)
from repro.util.errors import TaskCrashError

from tests.conftest import FAST_COLLECTOR

COUNTS = [4, 8, 16]


def _settings():
    return CollectionSettings(
        collector=FAST_COLLECTOR, workers=0,
        resilience=ResilienceConfig(
            max_retries=1, backoff_base_s=0.001, backoff_max_s=0.01
        ),
    )


def _assert_signatures_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.app == e.app and g.n_ranks == e.n_ranks
        assert g.compute_times == e.compute_times
        gt, et = g.slowest_trace(), e.slowest_trace()
        assert gt.rank == et.rank
        assert sorted(gt.blocks) == sorted(et.blocks)
        for block_id, gb in gt.blocks.items():
            eb = et.blocks[block_id]
            for gi, ei in zip(gb.instructions, eb.instructions):
                np.testing.assert_array_equal(gi.features, ei.features)


class TestRunJournal:
    def test_mark_and_done(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            assert not journal.done("u1")
            journal.mark("u1", n_ranks=8)
            assert journal.done("u1")
            assert journal.stats.marked == 1

    def test_resume_skips_and_counts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.mark_many(["u1", "u2"])
        with RunJournal(path, resume=True) as journal:
            assert journal.skip("u1") and journal.skip("u2")
            assert not journal.skip("u3")
            assert journal.stats.resumed == 2
            journal.mark("u3")
        assert RunJournal(path, resume=True).completed == {"u1", "u2", "u3"}

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.mark("stale")
        with RunJournal(path, resume=False) as journal:
            assert not journal.done("stale")

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.mark("u1")
        # simulate a writer killed mid-write: append half a record
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"unit": "u2"')
        with RunJournal(path, resume=True) as journal:
            assert journal.done("u1")
            assert not journal.done("u2")  # never committed -> redone
            journal.mark("u2")  # and the journal keeps working

    def test_torn_tail_recovery_at_every_byte_offset(self, tmp_path):
        """Property: truncate the journal at *every* byte offset inside
        the final record.  Recovery must never lose a committed unit and
        never trust the torn one — the crash model behind the DAG state
        store ("readable after a kill at any instant")."""
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.mark("u1", n_ranks=4)
            journal.mark("u2", n_ranks=8)
            journal.mark("u3", n_ranks=16, note="final record")
        data = path.read_bytes()
        prefix = data[: data.rindex(b'{"meta"')]  # bytes before record 3
        for cut in range(len(prefix), len(data) + 1):
            path.write_bytes(data[:cut])
            # a tail is committed only when its JSON made it out whole
            # (the final newline is decoration, not part of the record)
            try:
                committed = json.loads(data[len(prefix):cut])["unit"] == "u3"
            except ValueError:
                committed = False
            with RunJournal(path, resume=True) as journal:
                # committed units always survive, with their metadata
                assert journal.done("u1") and journal.done("u2")
                assert journal.meta("u1") == {"n_ranks": 4}
                assert journal.meta("u2") == {"n_ranks": 8}
                # the torn record is trusted only when byte-complete,
                # and then only with its full metadata
                assert journal.done("u3") == committed
                if committed:
                    assert journal.meta("u3") == {
                        "n_ranks": 16, "note": "final record"
                    }
                # and the journal keeps accepting appends afterwards
                journal.mark("u4")
                assert journal.done("u4")
        # sanity on the property itself: both verdicts were exercised
        assert len(prefix) < len(data) - 1

    def test_amend_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.amend("n1", status="failed", error="boom")
            assert journal.meta("n1") == {"status": "failed", "error": "boom"}
            journal.amend("n1", status="done", sha256="abc")
            assert journal.stats.amended == 2
        # append-only on disk: both records present, latest wins on load
        assert len(path.read_text().splitlines()) == 2
        with RunJournal(path, resume=True) as journal:
            assert journal.meta("n1") == {"status": "done", "sha256": "abc"}
            assert journal.metas() == {"n1": {"status": "done", "sha256": "abc"}}

    def test_refresh_folds_in_other_writers(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as mine:
            mine.mark("u1")
            with RunJournal(path, resume=True) as other:
                other.mark("u2", via="other")
            assert not mine.done("u2")
            mine.refresh()
            assert mine.done("u2")
            assert mine.meta("u2") == {"via": "other"}

    def test_remark_is_idempotent(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.mark("u1")
            journal.mark("u1")
            assert journal.stats.marked == 1
        assert len(path.read_text().splitlines()) == 1

    def test_default_path_sanitizes_run_name(self, tmp_path):
        path = default_journal_path(tmp_path, "table1 jacobi 4,8/16")
        assert path.parent == tmp_path
        assert "/" not in path.name.replace(".jsonl", "")
        assert path.name.endswith(".jsonl")

    def test_make_journal_optional(self, tmp_path):
        assert make_journal(None, "x") is None
        journal = make_journal(tmp_path, "x", resume=True)
        assert journal is not None and journal.path.parent == tmp_path
        journal.close()


class TestCollectionResume:
    def _run(self, small_jacobi, bw_spec, cache, journal, report=None):
        return collect_signatures(
            small_jacobi, COUNTS, bw_spec.hierarchy, _settings(),
            cache=cache, journal=journal,
            report=report if report is not None else RunReport(),
        )

    def test_killed_run_resumes_only_unfinished_units(
        self, tmp_path, small_jacobi, bw_spec
    ):
        # reference: clean uncached run
        clean = self._run(small_jacobi, bw_spec, None, None)

        journal_path = tmp_path / "ckpt" / "run.jsonl"
        hier = bw_spec.hierarchy.name

        # --- run 1 "dies" on the third unit: the crash fault fires on
        # every attempt, so retries exhaust and the run aborts with the
        # first two units committed
        cache1 = SignatureCache(tmp_path / "cache")
        plan = FaultPlan(
            specs=(FaultSpec(key="collect:jacobi:16", kind="crash",
                             attempts=(1, 2, 3)),)
        )
        with RunJournal(journal_path) as journal:
            with faults.injected(plan):
                with pytest.raises(TaskCrashError):
                    self._run(small_jacobi, bw_spec, cache1, journal)
            assert journal.completed == {
                unit_key("collect", "jacobi", hier, 4),
                unit_key("collect", "jacobi", hier, 8),
            }
        assert cache1.stats.stores == 2

        # --- run 2 resumes: only count 16 is re-collected
        cache2 = SignatureCache(tmp_path / "cache")
        report = RunReport()
        with RunJournal(journal_path, resume=True) as journal:
            resumed = self._run(small_jacobi, bw_spec, cache2, journal, report)
            assert journal.stats.resumed == 2  # units served by the cache
            assert journal.stats.marked == 1  # only the unfinished one
        assert cache2.stats.hits == 2
        assert cache2.stats.stores == 1
        assert report.clean  # no faults this time

        # resume changed nothing about the results
        _assert_signatures_equal(resumed, clean)

    def test_journaled_unit_with_lost_cache_entry_is_recollected(
        self, tmp_path, small_jacobi, bw_spec
    ):
        journal_path = tmp_path / "ckpt" / "run.jsonl"
        cache1 = SignatureCache(tmp_path / "cache")
        with RunJournal(journal_path) as journal:
            clean = self._run(small_jacobi, bw_spec, cache1, journal)

        # the cache entry for count 8 vanishes (cleared cache, pruned
        # file, quarantined entry...) while the journal still lists it
        key8 = cache1.key_for(
            small_jacobi, 8, bw_spec.hierarchy, _settings()
        )
        cache1.store.path(key8).unlink()

        cache2 = SignatureCache(tmp_path / "cache")
        with RunJournal(journal_path, resume=True) as journal:
            resumed = self._run(small_jacobi, bw_spec, cache2, journal)
            # journal said "done", cache said "gone" -> recollect
            assert journal.stats.resumed == 2
            assert cache2.stats.stores == 1
        _assert_signatures_equal(resumed, clean)

    def test_journal_lines_carry_unit_names(self, tmp_path, small_jacobi, bw_spec):
        journal_path = tmp_path / "ckpt" / "run.jsonl"
        cache = SignatureCache(tmp_path / "cache")
        with RunJournal(journal_path) as journal:
            self._run(small_jacobi, bw_spec, cache, journal)
        units = [
            json.loads(line)["unit"]
            for line in journal_path.read_text().splitlines()
        ]
        hier = bw_spec.hierarchy.name
        assert units == [
            unit_key("collect", "jacobi", hier, c) for c in COUNTS
        ]
