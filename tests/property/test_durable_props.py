"""Property: no on-disk corruption can crash a durable load or fake data.

The durable layer's promise is exhaustive, so the tests are too: for a
journal and a checkpoint, *every* possible truncation point and *every*
possible single-bit flip is tried, and each
mutated file must (a) load without raising and (b) yield either nothing
or a verified prefix of what was written — never plausible garbage.
These loops are deterministic (no sampling): the files are small enough
that full coverage costs a few thousand loads.
"""

from repro.durable.checkpoint import CheckpointStore
from repro.durable.journal import (
    _CK_FORMAT,
    JOURNAL_MAGIC,
    Journal,
    RunJournal,
    scan_journal,
)


def make_journal_bytes(tmp_path):
    journal = Journal(tmp_path / "pristine.bin")
    payloads = [b"alpha", b"beta-beta", b"gamma" * 3, b"d"]
    for payload in payloads:
        journal.append(payload)
    journal.close()
    return journal.path.read_bytes(), payloads


class TestJournalExhaustive:
    def test_every_truncation_yields_a_clean_prefix(self, tmp_path):
        data, payloads = make_journal_bytes(tmp_path)
        victim = tmp_path / "victim.bin"
        for cut in range(len(data) + 1):
            victim.write_bytes(data[:cut])
            scan = scan_journal(victim)  # must never raise
            assert scan.payloads == payloads[: len(scan.payloads)]
            if cut >= len(JOURNAL_MAGIC):
                # every byte is accounted for: verified prefix + discard
                assert scan.valid_bytes + scan.discarded_bytes == cut
            else:
                # a torn header reads as an unreadable (quarantine-grade)
                # file, never as data
                assert scan.payloads == [] and scan.valid_bytes in (
                    0, len(JOURNAL_MAGIC),
                )

    def test_every_bit_flip_yields_a_clean_prefix(self, tmp_path):
        data, payloads = make_journal_bytes(tmp_path)
        victim = tmp_path / "victim.bin"
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            victim.write_bytes(bytes(flipped))
            scan = scan_journal(victim)  # must never raise
            # every surviving payload is *exactly* one that was written,
            # in order — a flip can shorten the prefix, never alter it
            # (flipping the low bit of a length prefix can merely re-frame
            # the tail, which the per-record digests then reject)
            assert scan.payloads == payloads[: len(scan.payloads)]

    def test_run_journal_recover_never_raises(self, tmp_path):
        runlog = RunJournal(tmp_path / "run")
        runlog.checkpoint({"agg": 1}, next_index=2)
        runlog.record(2, {"delta": "x"})
        runlog.record(3, {"delta": "y"})
        runlog.close()
        pristine = runlog.journal.path.read_bytes()
        for offset in range(len(pristine)):
            flipped = bytearray(pristine)
            flipped[offset] ^= 0x01
            runlog.journal.path.write_bytes(bytes(flipped))
            fresh = RunJournal(tmp_path / "run")
            ck, records, report = fresh.recover()  # must never raise
            assert ck == {"agg": 1}
            assert [obj for _, obj in records] in (
                [], [{"delta": "x"}], [{"delta": "x"}, {"delta": "y"}],
            )
            # recover() may repair (truncate) the file; restore for the
            # next iteration either way
            runlog.journal.path.write_bytes(pristine)


class TestCheckpointExhaustive:
    def test_every_mutation_reads_as_corrupt_or_exact(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.bin", tmp_path / "q")
        store.save(("format", 7, {"state": list(range(10))}))
        pristine = store.path.read_bytes()
        mutations = [pristine[:cut] for cut in range(len(pristine))]
        mutations += [
            bytes(b ^ (0x01 if i == offset else 0x00) for i, b in
                  enumerate(pristine))
            for offset in range(len(pristine))
        ]
        for blob in mutations:
            store.path.write_bytes(blob)
            obj, problem = store.load()  # must never raise
            if problem is None:
                assert obj == ("format", 7, {"state": list(range(10))})
            else:
                assert obj is None and problem in ("missing", "corrupt")
        store.path.write_bytes(pristine)
        assert store.load() == (("format", 7, {"state": list(range(10))}), None)


class TestRunCheckpointFormat:
    def test_version_skew_is_a_miss(self, tmp_path):
        # a sealed, picklable checkpoint of another format number: the
        # seal verifies, the format does not, so recovery quarantines it
        # instead of answering from it
        finished = {"finished": True, "result": "verdict"}
        CheckpointStore(tmp_path / "key.journal" / "checkpoint.bin").save(
            (_CK_FORMAT + 1, 3, finished)
        )
        runlog, ck, records, report = RunJournal.open_run(tmp_path, "key")
        assert ck is None and records == [] and runlog.next_index == 0
        assert not report.checkpoint_loaded
        assert not report.checkpoint_finished
        assert report.quarantined == ["checkpoint.bin"]
        assert "checkpoint format skew; quarantined" in report.notes
        assert (tmp_path / "quarantine" / "checkpoint.bin").exists()
        assert not (tmp_path / "key.journal" / "checkpoint.bin").exists()
        runlog.close()
