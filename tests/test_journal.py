"""Write-ahead journal crash safety.

Three layers of kill-testing:

* the frame codec, fuzzed at **every byte prefix** of a multi-record
  log — decoding never raises and always yields a prefix of the
  records that were written;
* :class:`DirectoryJournal` recovery — torn tails are truncated in
  place and appends extend a valid log afterwards;
* the directory itself — ≥50 randomized add/remove/recluster
  interleavings with simulated crashes (torn bytes appended to the
  log), each restarted from ``snapshot + journal`` and compared
  **bit-identically** to the live directory: same assignments, same
  generation counter, same classify outputs down to the float.
"""

import random

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.resilience import (
    STATS,
    DirectoryJournal,
    FaultPlan,
    FaultSpec,
    JournalError,
    TransientFault,
    active_plan,
    decode_records,
    encode_record,
    open_journal,
)
from repro.resilience.journal import _HEADER
from repro.service.directory import FormDirectory
from repro.service.snapshot import Snapshot, build_snapshot


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)

#: How many held-out pages feed the mutation property tests.
N_HELD_OUT = 10


@pytest.fixture(scope="module")
def seed_corpus(small_raw_pages):
    """(snapshot over most of the corpus, held-out pages for adds)."""
    managed = small_raw_pages[:-N_HELD_OUT]
    pool = small_raw_pages[-N_HELD_OUT:]
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(managed)
    snapshot = build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)
    return snapshot, pool


def make_directory(snapshot, **kwargs):
    kwargs.setdefault("auto_recluster", False)
    kwargs.setdefault("cache_size", 0)
    return FormDirectory.from_snapshot(snapshot, **kwargs)


def directory_state(directory):
    """Everything the bit-identity criterion compares (except classify)."""
    organizer = directory.organizer
    return {
        "by_url": dict(organizer._by_url),
        "clusters": [
            [page.url for page in cluster.pages]
            for cluster in organizer.clusters
        ],
        "generation": directory.generation,
    }


RECORDS = [
    {"op": "add", "page": {"url": "http://a.example/", "w": 0.25}},
    {"op": "remove", "url": "http://b.example/q?x=1&y=2"},
    {"op": "recluster"},
    {"op": "add", "page": {"url": "http://c.example/été", "n": 3}},
    {"op": "remove", "url": ""},
    {"op": "add", "page": {"deep": {"nest": [1, 2.5, None, True]}}},
]


# ---------------------------------------------------------------------
# The frame codec.
# ---------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        data = b"".join(encode_record(r) for r in RECORDS)
        records, valid = decode_records(data)
        assert records == RECORDS
        assert valid == len(data)

    def test_every_byte_prefix_is_safe(self):
        """Kill the writer at any byte: decoding never raises, yields a
        record prefix, and reports a cut exactly on a frame boundary."""
        frames = [encode_record(r) for r in RECORDS]
        data = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(data) + 1):
            records, valid = decode_records(data[:cut])
            assert valid <= cut
            assert valid in boundaries
            assert records == RECORDS[: len(records)]
            # valid bytes account exactly for the records returned
            assert valid == boundaries[len(records)]

    def test_corrupt_byte_stops_before_the_record(self):
        frames = [encode_record(r) for r in RECORDS]
        data = bytearray(b"".join(frames))
        # Flip a payload byte inside the third record.
        offset = len(frames[0]) + len(frames[1]) + _HEADER.size + 2
        data[offset] ^= 0xFF
        records, valid = decode_records(bytes(data))
        assert records == RECORDS[:2]
        assert valid == len(frames[0]) + len(frames[1])

    def test_absurd_length_field_rejected(self):
        garbage = _HEADER.pack(2**31, 0) + b"x" * 64
        records, valid = decode_records(garbage)
        assert records == [] and valid == 0

    def test_non_dict_payload_rejected(self):
        import binascii

        payload = b"[1,2,3]"
        frame = _HEADER.pack(len(payload), binascii.crc32(payload)) + payload
        records, valid = decode_records(encode_record(RECORDS[0]) + frame)
        assert records == [RECORDS[0]]
        assert valid == len(encode_record(RECORDS[0]))


# ---------------------------------------------------------------------
# DirectoryJournal recovery.
# ---------------------------------------------------------------------


class TestDirectoryJournal:
    def test_append_reopen_replay(self, tmp_path):
        path = tmp_path / "dir.wal"
        with DirectoryJournal(path) as journal:
            for record in RECORDS:
                journal.append(record)
            assert journal.n_records == len(RECORDS)
            assert journal.n_bytes == path.stat().st_size
        reopened = DirectoryJournal(path)
        assert reopened.replay() == RECORDS
        assert reopened.n_records == len(RECORDS)
        assert reopened.torn_bytes_dropped == 0
        reopened.close()

    def test_torn_tail_truncated_in_place(self, tmp_path):
        path = tmp_path / "dir.wal"
        with DirectoryJournal(path) as journal:
            for record in RECORDS[:3]:
                journal.append(record)
            valid_size = journal.n_bytes
        torn = encode_record({"op": "recluster"})[:7]
        with open(path, "ab") as handle:
            handle.write(torn)
        recovered = DirectoryJournal(path)
        assert recovered.torn_bytes_dropped == len(torn)
        assert recovered.n_records == 3
        assert path.stat().st_size == valid_size
        assert recovered.replay() == RECORDS[:3]
        # Appends after recovery extend a valid log.
        recovered.append({"op": "recluster"})
        recovered.close()
        assert DirectoryJournal(path).replay() == RECORDS[:3] + [
            {"op": "recluster"}
        ]

    def test_recovery_at_every_byte_boundary(self, tmp_path):
        """A crash may leave the file cut at *any* byte; recovery always
        lands on a record prefix and the journal stays usable."""
        frames = [encode_record(r) for r in RECORDS[:4]]
        data = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        path = tmp_path / "cut.wal"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            journal = DirectoryJournal(path, fsync=False)
            # the boundary count gives how many whole frames fit the cut
            expected = [b for b in boundaries if b <= cut]
            assert journal.n_records == len(expected) - 1
            assert journal.replay() == RECORDS[: journal.n_records]
            assert path.stat().st_size == expected[-1]
            journal.append({"op": "recluster"})
            journal.close()
            assert DirectoryJournal(path, fsync=False).replay() == (
                RECORDS[: len(expected) - 1] + [{"op": "recluster"}]
            )

    def test_truncate_empties_and_stays_usable(self, tmp_path):
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path)
        for record in RECORDS[:2]:
            journal.append(record)
        journal.truncate()
        assert journal.n_records == 0
        assert path.stat().st_size == 0
        journal.append(RECORDS[0])
        journal.close()
        assert DirectoryJournal(path).replay() == [RECORDS[0]]

    def test_open_journal_plumbing(self, tmp_path):
        assert open_journal(None) is None
        journal = DirectoryJournal(tmp_path / "a.wal")
        assert open_journal(journal) is journal
        built = open_journal(tmp_path / "b.wal")
        assert isinstance(built, DirectoryJournal)
        journal.close()
        built.close()


# ---------------------------------------------------------------------
# The directory's WAL discipline.
# ---------------------------------------------------------------------


class TestDirectoryWAL:
    def test_restart_is_bit_identical(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        path = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(path))
        for raw in pool[:4]:
            live.add(raw)
        live.remove(pool[1].url)
        live.recluster()
        live.add(pool[4])
        probe = pool[5]
        live_outcome = live.classify(probe)
        live_state = directory_state(live)
        live.close()

        replays_before = STATS.get("journal_replays")
        restarted = make_directory(snapshot, journal=str(path))
        assert directory_state(restarted) == live_state
        assert restarted.n_replayed == 7  # 5 adds + 1 remove + 1 recluster
        assert STATS.get("journal_replays") == replays_before + 1
        outcome = restarted.classify(probe)
        assert outcome.cluster == live_outcome.cluster
        assert outcome.similarity == live_outcome.similarity
        assert outcome.top_terms == live_outcome.top_terms
        restarted.close()

    def test_unmanaged_remove_is_journaled_but_noop(
        self, seed_corpus, tmp_path
    ):
        snapshot, _ = seed_corpus
        path = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(path))
        generation = live.generation
        assert not live.remove("http://never.example/managed")
        assert live.generation == generation
        state = directory_state(live)
        live.close()
        assert DirectoryJournal(path).replay() == [
            {"op": "remove", "url": "http://never.example/managed"}
        ]
        restarted = make_directory(snapshot, journal=str(path))
        assert directory_state(restarted) == state
        restarted.close()

    def test_unknown_op_raises_journal_error(self, seed_corpus, tmp_path):
        snapshot, _ = seed_corpus
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path)
        journal.append({"op": "explode"})
        journal.close()
        with pytest.raises(JournalError, match="explode"):
            make_directory(snapshot, journal=str(path))

    def test_failed_append_aborts_the_mutation(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        path = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(path))
        state = directory_state(live)
        plan = FaultPlan([FaultSpec("journal.append", "transient")], seed=0)
        with active_plan(plan):
            with pytest.raises(TransientFault):
                live.add(pool[0])
        # State never got ahead of the log.
        assert directory_state(live) == state
        assert live._journal.n_records == 0
        # The seam disarmed, the same mutation lands.
        live.add(pool[0])
        assert pool[0].url in live.organizer._by_url
        assert live._journal.n_records == 1
        live.close()

    def test_stats_surface_the_journal(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        path = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(path))
        live.add(pool[0])
        resilience = live.stats()["resilience"]
        assert resilience["journaled"] is True
        assert resilience["journal_records"] == 1
        assert resilience["journal_bytes"] == path.stat().st_size
        live.close()


class TestCrashRestartProperty:
    """≥50 randomized interleavings, each killed and recovered."""

    N_SEEDS = 50

    def test_randomized_interleavings_recover_bit_identically(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        probe = pool[-1]
        for seed in range(self.N_SEEDS):
            rng = random.Random(seed)
            path = tmp_path / f"crash-{seed}.wal"
            journal = DirectoryJournal(path, fsync=False)
            live = make_directory(snapshot, journal=journal)
            for _ in range(rng.randint(3, 7)):
                roll = rng.random()
                managed = list(live.organizer._by_url)
                if roll < 0.5:
                    live.add(rng.choice(pool[:-1]))
                elif roll < 0.85 and managed:
                    live.remove(rng.choice(managed))
                else:
                    live.recluster()
            live_state = directory_state(live)
            live_outcome = live.classify(probe)
            live.close()

            # The crash: a torn frame of a mutation that never applied.
            if rng.random() < 0.8:
                frame = encode_record({"op": "recluster"})
                torn = frame[: rng.randrange(1, len(frame))]
                with open(path, "ab") as handle:
                    handle.write(torn)

            restarted = make_directory(
                snapshot, journal=DirectoryJournal(path, fsync=False)
            )
            assert directory_state(restarted) == live_state, f"seed {seed}"
            outcome = restarted.classify(probe)
            assert outcome.cluster == live_outcome.cluster, f"seed {seed}"
            assert outcome.similarity == live_outcome.similarity, (
                f"seed {seed}"
            )
            restarted.close()


# ---------------------------------------------------------------------
# Checkpointing: folding the journal into a snapshot.
# ---------------------------------------------------------------------


class TestCheckpoint:
    def test_checkpoint_truncates_and_restarts_clean(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        wal = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(wal))
        for raw in pool[:3]:
            live.add(raw)
        live.remove(pool[0].url)
        checkpoint_path = tmp_path / "checkpoint.json.gz"
        live.checkpoint(checkpoint_path)
        assert live._journal.n_records == 0
        assert wal.stat().st_size == 0

        # Restart from the checkpoint + (empty) journal: same state.
        live_state = directory_state(live)
        probe = pool[4]
        live_outcome = live.classify(probe)
        restarted = make_directory(str(checkpoint_path), journal=str(wal))
        assert directory_state(restarted) == {
            **live_state,
            # The generation counter restarts with the snapshot era.
            "generation": 0,
        }
        outcome = restarted.classify(probe)
        assert outcome.cluster == live_outcome.cluster
        assert outcome.similarity == live_outcome.similarity

        # Mutations after the checkpoint journal again.
        restarted.add(pool[0])
        assert restarted._journal.n_records == 1
        live.close()
        restarted.close()

    def test_crash_between_save_and_truncate_converges(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        wal = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(wal))
        for raw in pool[:3]:
            live.add(raw)
        live.remove(pool[1].url)
        # The crash window: snapshot durably saved, journal NOT truncated.
        mid_path = tmp_path / "mid.json.gz"
        Snapshot.from_organizer(live.organizer).save(mid_path)
        live_urls = sorted(live.organizer._by_url)
        live.close()

        restarted = make_directory(str(mid_path), journal=str(wal))
        # Replaying already-folded mutations re-inserts the same pages
        # and no-ops the removes: the same page set, still consistent.
        assert sorted(restarted.organizer._by_url) == live_urls
        assert restarted.classify(pool[4]).cluster is not None
        restarted.close()

    def test_injected_save_fault_leaves_journal_intact(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        wal = tmp_path / "dir.wal"
        live = make_directory(snapshot, journal=str(wal))
        live.add(pool[0])
        plan = FaultPlan([FaultSpec("snapshot.save", "transient")], seed=0)
        with active_plan(plan):
            with pytest.raises(TransientFault):
                live.checkpoint(tmp_path / "never.json.gz")
        # Truncation is ordered after the durable save: the failed save
        # must leave every journal record in place.
        assert live._journal.n_records == 1
        assert not (tmp_path / "never.json.gz").exists()
        live.close()

    def test_truncated_snapshot_fails_cleanly(self, seed_corpus, tmp_path):
        snapshot, _ = seed_corpus
        path = tmp_path / "snap.json"
        snapshot.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            Snapshot.load(path)


# ---------------------------------------------------------------------
# Segment rotation: the WAL as a shippable series of sealed files.
# ---------------------------------------------------------------------


class TestSegmentRotation:
    def test_rollover_by_record_count(self, tmp_path):
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path, max_segment_records=2)
        for record in RECORDS[:5]:
            journal.append(record)
        # 5 appends at 2/segment: two sealed segments + 1 active record.
        assert journal.n_segments == 2
        assert journal.n_records == 5
        assert journal.next_record == 5
        assert [s.n_records for s in journal.segments()] == [2, 2]
        assert [s.base_record for s in journal.segments()] == [0, 2]
        assert journal.replay() == RECORDS[:5]
        journal.close()
        # Totals and order survive reopen.
        reopened = DirectoryJournal(path, max_segment_records=2)
        assert reopened.n_segments == 2
        assert reopened.replay() == RECORDS[:5]
        reopened.close()

    def test_rollover_by_bytes(self, tmp_path):
        frame = len(encode_record(RECORDS[0]))
        journal = DirectoryJournal(
            tmp_path / "dir.wal", max_segment_bytes=frame
        )
        for _ in range(3):
            journal.append(RECORDS[0])
        assert journal.n_segments == 3  # each append fills a segment
        assert journal.replay() == [RECORDS[0]] * 3
        journal.close()

    def test_segment_bytes_round_trip(self, tmp_path):
        journal = DirectoryJournal(
            tmp_path / "dir.wal", max_segment_records=3
        )
        for record in RECORDS:
            journal.append(record)
        for info in journal.segments():
            records, valid = decode_records(journal.segment_bytes(info.seq))
            assert records == RECORDS[
                info.base_record: info.base_record + info.n_records
            ]
            assert valid == info.n_bytes
        journal.close()

    def test_drop_sealed_preserves_global_positions(self, tmp_path):
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path, max_segment_records=2)
        for record in RECORDS[:5]:
            journal.append(record)
        assert journal.drop_sealed() == 4  # records, not segments
        assert journal.n_segments == 0
        assert journal.base_record == 4
        assert journal.next_record == 5  # global position unchanged
        assert journal.replay() == [RECORDS[4]]  # only the active tail
        with pytest.raises(JournalError):
            journal.segment_bytes(1)  # folded away
        journal.close()
        reopened = DirectoryJournal(path, max_segment_records=2)
        assert reopened.base_record == 4
        assert reopened.next_record == 5
        reopened.close()

    def test_torn_sealed_segment_raises(self, tmp_path):
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path, max_segment_records=2)
        for record in RECORDS[:4]:
            journal.append(record)
        seg = journal.segments()[0].path
        journal.close()
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # sealed files are immutable: corrupt
        with pytest.raises(JournalError, match="sealed"):
            DirectoryJournal(path, max_segment_records=2)

    def test_manifest_is_advisory_segments_authoritative(self, tmp_path):
        """Crash windows around a roll can leave the manifest stale in
        either direction; recovery always reconciles from the files."""
        path = tmp_path / "dir.wal"
        journal = DirectoryJournal(path, max_segment_records=2)
        for record in RECORDS[:5]:
            journal.append(record)
        manifest_path = journal.manifest_path
        journal.close()

        # Stale: manifest deleted outright.
        manifest_path.unlink()
        recovered = DirectoryJournal(path, max_segment_records=2)
        assert recovered.n_segments == 2
        assert recovered.replay() == RECORDS[:5]
        recovered.close()

        # Stale: manifest garbage.
        manifest_path.write_text("{not json")
        recovered = DirectoryJournal(path, max_segment_records=2)
        assert recovered.replay() == RECORDS[:5]
        recovered.close()

    def test_crash_at_every_active_byte_with_sealed_history(self, tmp_path):
        """The segment-boundary extension of the byte-boundary fuzz: two
        sealed segments stay intact, the active tail is cut at every
        byte, and recovery = sealed records + a prefix of the tail."""
        sealed = RECORDS[:4]
        tail_frames = [encode_record(r) for r in RECORDS[4:]]
        tail = b"".join(tail_frames)
        boundaries = [0]
        for frame in tail_frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(tail) + 1):
            path = tmp_path / f"cut-{cut}.wal"
            journal = DirectoryJournal(
                path, fsync=False, max_segment_records=2
            )
            for record in sealed:
                journal.append(record)
            journal.close()
            path.write_bytes(tail[:cut])
            recovered = DirectoryJournal(
                path, fsync=False, max_segment_records=2
            )
            whole = [b for b in boundaries if b <= cut]
            n_tail = len(whole) - 1
            assert recovered.n_segments == 2
            assert recovered.n_records == 4 + n_tail
            assert recovered.replay() == sealed + RECORDS[4: 4 + n_tail]
            # The log stays appendable — and can still roll.
            recovered.append({"op": "recluster"})
            recovered.append({"op": "recluster"})
            recovered.close()
            reread = DirectoryJournal(
                path, fsync=False, max_segment_records=2
            )
            assert reread.replay() == (
                sealed + RECORDS[4: 4 + n_tail]
                + [{"op": "recluster"}] * 2
            )
            reread.close()

    def test_randomized_rotation_crash_fuzz(self, seed_corpus, tmp_path):
        """The directory-level crash property, now with rotation armed:
        random mutations roll segments mid-stream, a torn frame lands on
        the active tail, and the restart is still bit-identical."""
        snapshot, pool = seed_corpus
        probe = pool[-1]
        for seed in range(25):
            rng = random.Random(1000 + seed)
            path = tmp_path / f"rot-{seed}.wal"
            journal = DirectoryJournal(
                path, fsync=False,
                max_segment_records=rng.randint(1, 4),
            )
            live = make_directory(snapshot, journal=journal)
            for _ in range(rng.randint(3, 8)):
                roll = rng.random()
                managed = list(live.organizer._by_url)
                if roll < 0.5:
                    live.add(rng.choice(pool[:-1]))
                elif roll < 0.85 and managed:
                    live.remove(rng.choice(managed))
                else:
                    live.recluster()
            live_state = directory_state(live)
            live_outcome = live.classify(probe)
            n_segments = journal.n_segments
            live.close()

            if rng.random() < 0.8:
                frame = encode_record({"op": "recluster"})
                with open(path, "ab") as handle:
                    handle.write(frame[: rng.randrange(1, len(frame))])

            restarted = make_directory(
                snapshot,
                journal=DirectoryJournal(
                    path, fsync=False, max_segment_records=4
                ),
            )
            assert restarted._journal.n_segments == n_segments, f"seed {seed}"
            assert directory_state(restarted) == live_state, f"seed {seed}"
            outcome = restarted.classify(probe)
            assert outcome.cluster == live_outcome.cluster, f"seed {seed}"
            assert outcome.similarity == live_outcome.similarity, (
                f"seed {seed}"
            )
            restarted.close()


class TestSealedCheckpoint:
    """checkpoint(scope="sealed"): fold the shipped history, keep the
    active tail — the replication-friendly variant."""

    def test_sealed_scope_keeps_the_active_tail(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        wal = tmp_path / "dir.wal"
        journal = DirectoryJournal(wal, max_segment_records=2)
        live = make_directory(snapshot, journal=journal)
        for raw in pool[:5]:
            live.add(raw)
        assert journal.n_segments == 2
        active_before = journal.n_records - sum(
            s.n_records for s in journal.segments()
        )
        checkpoint_path = tmp_path / "sealed.json.gz"
        saved = live.checkpoint(checkpoint_path, scope="sealed")
        # Sealed history folded, active tail untouched.
        assert journal.n_segments == 0
        assert journal.n_records == active_before
        assert saved.meta["journal_position"] == 5

        # Restart from checkpoint + remaining journal: replaying the
        # tail over the (already-inclusive) snapshot converges.
        live_urls = sorted(live.organizer._by_url)
        live_outcome = live.classify(pool[5])
        live.close()
        restarted = make_directory(
            str(checkpoint_path),
            journal=DirectoryJournal(wal, max_segment_records=2),
        )
        assert sorted(restarted.organizer._by_url) == live_urls
        outcome = restarted.classify(pool[5])
        assert outcome.cluster == live_outcome.cluster
        assert outcome.similarity == live_outcome.similarity
        restarted.close()

    def test_all_scope_still_truncates(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        wal = tmp_path / "dir.wal"
        live = make_directory(
            snapshot,
            journal=DirectoryJournal(wal, max_segment_records=2),
        )
        for raw in pool[:5]:
            live.add(raw)
        live.checkpoint(tmp_path / "all.json.gz", scope="all")
        assert live._journal.n_records == 0
        assert live._journal.n_segments == 0
        assert live._journal.next_record == 5  # global position kept
        live.close()

    def test_bad_scope_rejected(self, seed_corpus, tmp_path):
        snapshot, _ = seed_corpus
        live = make_directory(snapshot, journal=str(tmp_path / "w.wal"))
        with pytest.raises(ValueError, match="scope"):
            live.checkpoint(tmp_path / "x.json.gz", scope="sideways")
        live.close()
