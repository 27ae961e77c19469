"""Unit: journal framing, checkpoint sealing, and recovery accounting.

The durable layer's contract is asymmetric: writes may fail loudly, but
*reads never raise and never return unverified bytes*.  These tests pin
the record framing, the scan classification (valid prefix / torn tail /
corrupt record / bad header), checkpoint compaction, the stale-record
skip, and the quarantine protocol.
"""

import os
import pickle

import pytest

from repro.durable.checkpoint import (
    CheckpointStore,
    read_sealed,
    seal,
    unseal,
    write_sealed,
)
from repro.durable.journal import (
    JOURNAL_MAGIC,
    MAX_RECORD_BYTES,
    Journal,
    RunJournal,
    scan_journal,
)
from repro.durable.recovery import RecoveryReport, quarantine_file


class TestSealedBlobs:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_sealed(path, b"payload bytes")
        assert read_sealed(path) == b"payload bytes"

    def test_unseal_rejects_bad_magic_and_bad_digest(self):
        blob = seal(b"data")
        assert unseal(blob) == b"data"
        assert unseal(b"NOTMAGIC" + blob) is None
        flipped = bytearray(blob)
        flipped[-1] ^= 0x01
        assert unseal(bytes(flipped)) is None
        assert unseal(b"") is None

    def test_read_sealed_missing_file(self, tmp_path):
        assert read_sealed(tmp_path / "absent.bin") is None

    def test_replace_is_atomic_under_failure(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_sealed(path, b"old")
        write_sealed(path, b"new")
        assert read_sealed(path) == b"new"
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class TestJournalScan:
    def test_missing_and_empty_scan_clean(self, tmp_path):
        scan = scan_journal(tmp_path / "absent.bin")
        assert scan.header_ok and scan.payloads == []
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        scan = scan_journal(empty)
        assert scan.header_ok and scan.payloads == []

    def test_roundtrip_records(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")
        journal.append(b"one")
        journal.append(b"two", sync=True)
        journal.close()
        scan = scan_journal(journal.path)
        assert scan.payloads == [b"one", b"two"]
        assert scan.discarded_bytes == 0

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")
        journal.append(b"alpha")
        journal.close()
        keep = journal.path.stat().st_size
        journal = Journal(tmp_path / "j.bin")
        journal.append(b"beta")
        journal.close()
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[: keep + 7])  # cut mid-record
        scan = scan_journal(journal.path)
        assert scan.payloads == [b"alpha"]
        assert scan.valid_bytes == keep
        assert scan.discarded_bytes == 7
        journal.repair(scan)
        assert journal.path.stat().st_size == keep

    def test_bit_flip_stops_the_scan(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")
        journal.append(b"alpha")
        journal.append(b"beta")
        journal.close()
        data = bytearray(journal.path.read_bytes())
        data[-1] ^= 0x01  # corrupt the last record's payload
        journal.path.write_bytes(bytes(data))
        scan = scan_journal(journal.path)
        assert scan.payloads == [b"alpha"]
        assert scan.discarded_bytes > 0

    def test_bad_header_unreadable_wholesale(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(b"garbage header" + b"x" * 50)
        scan = scan_journal(path)
        assert not scan.header_ok
        assert scan.payloads == [] and scan.valid_bytes == 0

    def test_corrupt_length_prefix_never_allocates(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(
            JOURNAL_MAGIC + (2**63).to_bytes(8, "big") + b"\0" * 40
        )
        scan = scan_journal(path)  # must return promptly, not allocate 8 EiB
        assert scan.payloads == []

    def test_oversize_append_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")

        class Huge(bytes):
            def __len__(self):
                return MAX_RECORD_BYTES + 1

        with pytest.raises(ValueError):
            journal.append(Huge())

    def test_reset_leaves_header_only(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")
        journal.append(b"data")
        journal.reset()
        assert journal.path.read_bytes() == JOURNAL_MAGIC
        journal.append(b"after")
        journal.close()
        assert scan_journal(journal.path).payloads == [b"after"]


class TestRunJournal:
    def test_fresh_recover_is_empty(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        ck, records, report = runlog.recover()
        assert ck is None and records == []
        assert not report.salvaged_anything
        assert "fresh run" in report.describe()

    def test_records_then_checkpoint_then_records(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.record(0, "a")
        runlog.record(1, "b")
        runlog.checkpoint({"state": "ab"}, next_index=2)
        runlog.record(2, "c")
        runlog.close()
        runlog = RunJournal(tmp_path / "run")
        ck, records, report = runlog.recover()
        assert ck == {"state": "ab"}
        assert records == [(2, "c")]
        assert report.checkpoint_loaded and report.records_recovered == 1
        assert runlog.next_index == 3

    def test_stale_records_skipped(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.checkpoint("agg", next_index=5)
        runlog.record(3, "stale")  # pre-compaction leftover
        runlog.record(5, "live")
        runlog.close()
        runlog = RunJournal(tmp_path / "run")
        ck, records, report = runlog.recover()
        assert ck == "agg" and records == [(5, "live")]
        assert report.records_stale == 1

    def test_gap_drops_suffix(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.record(0, "a")
        runlog.record(2, "after-gap")
        runlog.close()
        runlog = RunJournal(tmp_path / "run")
        _, records, report = runlog.recover()
        assert records == [(0, "a")]
        assert any("gap" in note for note in report.notes)

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.checkpoint("agg", next_index=4)
        runlog.close()
        ck_path = tmp_path / "run" / "checkpoint.bin"
        blob = bytearray(ck_path.read_bytes())
        blob[-1] ^= 0x01
        ck_path.write_bytes(bytes(blob))
        runlog = RunJournal(tmp_path / "run")
        ck, records, report = runlog.recover()
        assert ck is None and records == []
        assert "checkpoint.bin" in report.quarantined
        assert not ck_path.exists()  # moved, not deleted
        assert list((tmp_path / "run" / "quarantine").iterdir())

    def test_bad_journal_header_quarantined(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.record(0, "x")
        runlog.close()
        runlog.journal.path.write_bytes(b"not a journal at all")
        runlog = RunJournal(tmp_path / "run")
        ck, records, report = runlog.recover()
        assert records == []
        assert "journal.bin" in report.quarantined

    def test_torn_tail_reported_and_repaired(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.record(0, "keep")
        runlog.record(1, "torn")
        runlog.close()
        path = runlog.journal.path
        path.write_bytes(path.read_bytes()[:-3])
        runlog = RunJournal(tmp_path / "run")
        _, records, report = runlog.recover()
        assert records == [(0, "keep")]
        assert report.bytes_discarded > 0
        assert "torn" in report.describe()
        # the file itself was truncated back to its valid prefix
        assert scan_journal(path).discarded_bytes == 0

    def test_recover_seeds_checkpoint_size_from_the_loaded_payload(
        self, tmp_path
    ):
        runlog = RunJournal(tmp_path / "run")
        runlog.checkpoint({"state": list(range(100))}, next_index=1)
        written = runlog.last_checkpoint_bytes
        runlog.close()
        fresh = RunJournal(tmp_path / "run")
        fresh.recover()
        assert fresh.last_checkpoint_bytes == written > 0
        ck_path = tmp_path / "run" / "checkpoint.bin"
        ck_path.write_bytes(ck_path.read_bytes()[:-1])
        damaged = RunJournal(tmp_path / "run")
        damaged.recover()
        assert damaged.last_checkpoint_bytes == 0

    def test_open_run_fresh_has_no_report(self, tmp_path):
        runlog, ck, records, report = RunJournal.open_run(tmp_path, "key")
        assert ck is None and records == [] and report is None
        assert runlog.directory == tmp_path / "key.journal"
        assert runlog.quarantine_dir == tmp_path / "quarantine"
        runlog.close()

    def test_open_run_unfinished_checkpoint_resumes(self, tmp_path):
        runlog, _, _, _ = RunJournal.open_run(tmp_path, "key")
        runlog.checkpoint({"finished": False, "state": 1}, next_index=2)
        runlog.record(2, "delta")
        runlog.close()
        runlog, ck, records, report = RunJournal.open_run(tmp_path, "key")
        assert ck == {"finished": False, "state": 1}
        assert records == [(2, "delta")] and runlog.next_index == 3
        assert report.checkpoint_loaded and not report.checkpoint_finished
        assert report.describe() == (
            "recovery [key.journal]: salvaged checkpoint, 1 journal records"
        )
        runlog.close()

    def test_open_run_finished_checkpoint_is_marked_finished(self, tmp_path):
        runlog, _, _, _ = RunJournal.open_run(tmp_path, "key")
        runlog.record(0, "delta")
        runlog.finish({"result": "verdict"}, 1)
        assert not runlog.journal.path.exists()  # a re-ask reads one file
        _, ck, records, report = RunJournal.open_run(tmp_path, "key")
        assert ck == {"finished": True, "result": "verdict"}
        assert records == []
        assert report.checkpoint_loaded and report.checkpoint_finished
        assert report.describe() == (
            "recovery [key.journal]: salvaged finished checkpoint, "
            "0 journal records"
        )


class TestCheckpointStore:
    def test_missing(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.bin")
        assert store.load() == (None, "missing")

    def test_roundtrip_and_unpicklable_quarantine(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.bin")
        store.save({"x": 1})
        assert store.load() == ({"x": 1}, None)
        # a sealed blob whose payload is not a pickle: digest passes,
        # unpickling fails, file is quarantined
        write_sealed(store.path, b"this is not a pickle")
        obj, problem = store.load()
        assert obj is None and problem == "corrupt"
        assert not store.path.exists()


class TestQuarantine:
    def test_collision_suffixes(self, tmp_path):
        qdir = tmp_path / "quarantine"
        for expect in ("bad.bin", "bad.bin.1", "bad.bin.2"):
            victim = tmp_path / "bad.bin"
            victim.write_bytes(b"x")
            moved = quarantine_file(victim, qdir)
            assert moved is not None and moved.name == expect

    def test_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "ghost", tmp_path / "q") is None


class TestRecoveryReport:
    def test_describe_mentions_everything(self):
        report = RecoveryReport(
            run="r", checkpoint_loaded=True, records_recovered=3,
            records_stale=2, bytes_discarded=17, quarantined=["f"],
        )
        line = report.describe()
        for fragment in ("checkpoint", "3 journal records", "2 stale",
                         "17 torn bytes", "1 files quarantined"):
            assert fragment in line

    def test_describe_finished_checkpoint(self):
        report = RecoveryReport(
            run="r", checkpoint_loaded=True, checkpoint_finished=True,
        )
        assert report.describe() == (
            "recovery [r]: salvaged finished checkpoint, 0 journal records"
        )

    def test_pickles_cleanly(self):
        report = RecoveryReport(run="r", records_recovered=1)
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report
