"""A crash-safe, segmented write-ahead journal for the form directory.

Snapshots make cold starts cheap, but everything between two snapshot
builds used to live only in memory: kill the process and every ``add``
and ``remove`` since the last build was silently gone.  The journal
closes that window with classic WAL discipline:

* every mutation is **appended before it is applied** — length- and
  CRC-framed JSON, flushed and fsynced, so an acknowledged mutation is
  on disk no matter when the process dies;
* recovery replays ``snapshot + journal`` back to bit-identical
  post-mutation state (the directory journals the *vectorized* page,
  so replay re-does no parsing and reproduces the exact floats);
* a crash mid-append leaves a **torn final record**; replay detects it
  (short frame or CRC mismatch), drops exactly the tail, and truncates
  the file so subsequent appends extend a valid log;
* a snapshot build folds the log into the artifact and truncates it
  (via the same fsynced atomic-replace discipline as every other
  artifact, :mod:`repro.datasets.store`).

Segmentation (the replication substrate — docs/SHARDING.md): with
``max_segment_records`` / ``max_segment_bytes`` set, the *active* file
rolls over into **immutable, numbered segments** (``dir.wal.000001``,
``dir.wal.000002``, …) listed in a manifest (``dir.wal.manifest``).
Sealed segments never change, which is what makes them shippable: a
read replica downloads each sealed segment exactly once, replays its
records, and is caught up to the leader minus the (bounded) active
tail.  Every record has a stable **global position** — ``base_record``
counts records dropped by folds, so positions stay monotonic across
checkpoints and a replica's "applied through position P" survives the
leader folding its history.

Record frame: ``[length: u32 BE] [crc32(payload): u32 BE] [payload]``
where payload is compact UTF-8 JSON with sorted keys.

Epochs (the fencing substrate — docs/SHARDING.md): the journal carries
a monotonically increasing **epoch**, bumped by :meth:`DirectoryJournal.
bump_epoch` when a replica is promoted to leader.  While the epoch is
non-zero every appended record is stamped with it (an ``"epoch"`` key
in the JSON payload), the bump itself is an fsynced ``{"op": "epoch"}``
marker record, and the manifest records the current epoch.  Readers
treat a record *without* the key as epoch 0, so pre-epoch (v1) journals
recover bit-identically — the frame format never changed.  Replay-side
refusal of stale records (a deposed leader appending behind a newer
epoch marker) lives with the appliers: :func:`record_epoch` exposes a
record's epoch and :class:`StaleEpochError` is the shared "your epoch
is behind" signal raised by ``FormDirectory.apply_replicated`` and the
lease layer (:mod:`repro.distrib.fence`).
"""

import binascii
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.resilience.faults import inject

_HEADER = struct.Struct(">II")  # payload length, crc32(payload)

#: Refuse absurd frames during replay: a length field beyond this is
#: torn/garbage, not a record we ever wrote.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Sealed-segment filename suffix width (``dir.wal.000001``).
_SEQ_WIDTH = 6

_MANIFEST_KIND = "repro-journal-manifest"


class JournalError(ValueError):
    """The journal file is not something this module wrote."""


class StaleEpochError(Exception):
    """A write (or replicated record) arrived from an epoch lower than
    the highest durably seen — the sender is a deposed leader (a
    "zombie") and must not be acknowledged.  ``epoch`` is the current
    epoch the rejecting side holds; ``offered`` is the stale one."""

    def __init__(self, epoch: int, offered: int, detail: str = "") -> None:
        message = (
            f"stale epoch {offered} rejected (current epoch {epoch})"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.epoch = int(epoch)
        self.offered = int(offered)


def record_epoch(record: dict) -> int:
    """The epoch a journal/replication record carries (0 for pre-epoch
    records — mixed-version logs read fine)."""
    try:
        return int(record.get("epoch", 0))
    except (TypeError, ValueError):
        return 0


def encode_record(record: dict) -> bytes:
    """One framed record (pure function; exercised by the fuzz tests)."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(payload), binascii.crc32(payload)) + payload


def decode_records(data: bytes) -> Tuple[List[dict], int]:
    """Parse frames from ``data``; returns ``(records, valid_bytes)``.

    Parsing stops at the first incomplete or corrupt frame — by the
    WAL's append-only discipline that can only be a torn tail, so the
    remainder is dropped and ``valid_bytes`` marks where a recovered
    log should be truncated.  Never raises on torn input.
    """
    records: List[dict] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            break
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = data[start:end]
        if binascii.crc32(payload) != crc:
            break  # torn or bit-rotted frame
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset


@dataclass(frozen=True)
class SegmentInfo:
    """One sealed, immutable journal segment.

    ``base_record`` is the global position of the segment's first
    record; a replica applied through position P needs exactly the
    segments with ``base_record + n_records > P``.
    """

    seq: int
    base_record: int
    n_records: int
    n_bytes: int
    path: Path


class DirectoryJournal:
    """Append-only, fsynced journal of directory mutations.

    Thread-safety: appends are serialized by an internal lock (the
    directory additionally holds its write lock across journal+apply,
    which is what keeps the log ordered like the mutations).

    Parameters
    ----------
    path:
        The *active* segment file.  Sealed segments and the manifest
        live alongside it (``<name>.000001``, ``<name>.manifest``).
    fsync:
        Fsync after every append (and around seals/folds).  Turn off
        only in tests.
    max_segment_records / max_segment_bytes:
        Roll the active file into a sealed segment once it holds this
        many records / bytes (whichever trips first; ``None`` disables
        — the default, which is the pre-segmentation single-file WAL).
    epoch:
        Starting epoch *floor* (``repro shard --epoch``).  Recovery
        takes the max of this, the manifest's recorded epoch, and the
        highest epoch found in retained records — the epoch can only
        move forward.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = True,
        max_segment_records: Optional[int] = None,
        max_segment_bytes: Optional[int] = None,
        epoch: int = 0,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.max_segment_records = max_segment_records
        self.max_segment_bytes = max_segment_bytes
        self._lock = threading.Lock()
        self._handle = None
        #: Global position of the first *retained* record (sealed or
        #: active) — records folded into snapshots advance it.
        self.base_record = 0
        #: Highest epoch durably seen (marker records, stamped records,
        #: the manifest, or the constructor floor).
        self.epoch = max(0, int(epoch))
        self._segments: List[SegmentInfo] = []
        self.active_records = 0
        self.active_bytes = 0
        self.torn_bytes_dropped = 0
        self._recover()

    # -- derived counters ---------------------------------------------

    @property
    def n_records(self) -> int:
        """Records retained on disk (sealed segments + active file)."""
        return sum(s.n_records for s in self._segments) + self.active_records

    @property
    def n_bytes(self) -> int:
        """Bytes retained on disk (sealed segments + active file)."""
        return sum(s.n_bytes for s in self._segments) + self.active_bytes

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def next_record(self) -> int:
        """Global position the next appended record will get."""
        return self.base_record + self.n_records

    @property
    def active_base_record(self) -> int:
        """Global position of the active file's first record."""
        return self.base_record + sum(s.n_records for s in self._segments)

    # -- naming -------------------------------------------------------

    def _segment_path(self, seq: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{seq:0{_SEQ_WIDTH}d}")

    @property
    def manifest_path(self) -> Path:
        return self.path.with_name(self.path.name + ".manifest")

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Reconstruct state from disk, truncating any torn active tail.

        The manifest is advisory (its ``base_record``); the sealed
        segment *files* are authoritative — a crash between sealing a
        segment and rewriting the manifest leaves the file in place, and
        recovery picks it up by name.  Sealed segments must decode
        completely: they were fully fsynced while still the active file,
        so a torn one is corruption, not a crash artifact.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        manifest = self._read_manifest()
        self.base_record = int(manifest.get("base_record", 0))
        try:
            self.epoch = max(self.epoch, int(manifest.get("epoch", 0)))
        except (TypeError, ValueError):
            pass  # advisory; the records speak for themselves

        base = self.base_record
        self._segments = []
        for seq, seg_path in self._scan_segment_files():
            data = seg_path.read_bytes()
            records, valid = decode_records(data)
            if valid != len(data):
                raise JournalError(
                    f"sealed segment {seg_path} is torn at byte {valid} "
                    f"of {len(data)} — sealed segments are immutable"
                )
            for record in records:
                self.epoch = max(self.epoch, record_epoch(record))
            self._segments.append(
                SegmentInfo(seq, base, len(records), len(data), seg_path)
            )
            base += len(records)

        if not self.path.exists():
            return
        data = self.path.read_bytes()
        records, valid = decode_records(data)
        for record in records:
            self.epoch = max(self.epoch, record_epoch(record))
        self.active_records = len(records)
        self.active_bytes = valid
        if valid < len(data):
            self.torn_bytes_dropped = len(data) - valid
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    def _scan_segment_files(self) -> List[Tuple[int, Path]]:
        found = []
        prefix = self.path.name + "."
        for candidate in self.path.parent.glob(prefix + "*"):
            suffix = candidate.name[len(prefix):]
            if len(suffix) == _SEQ_WIDTH and suffix.isdigit():
                found.append((int(suffix), candidate))
        found.sort()
        return found

    def _read_manifest(self) -> dict:
        path = self.manifest_path
        if not path.exists():
            return {}
        try:
            payload = json.loads(path.read_text("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return {}  # advisory; the files speak for themselves
        if not isinstance(payload, dict) or payload.get("kind") != _MANIFEST_KIND:
            return {}
        return payload

    def _write_manifest(self) -> None:
        """Atomically replace the manifest (tmp + rename + dir fsync)."""
        payload = {
            "kind": _MANIFEST_KIND,
            "base_record": self.base_record,
            "epoch": self.epoch,
            "sealed": [
                {
                    "seq": s.seq,
                    "base_record": s.base_record,
                    "records": s.n_records,
                    "bytes": s.n_bytes,
                }
                for s in self._segments
            ],
        }
        tmp = self.manifest_path.with_suffix(".manifest.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        tmp.replace(self.manifest_path)
        self._fsync_parent()

    def _fsync_parent(self) -> None:
        if self.fsync:
            # Imported lazily: datasets pulls in the pipeline layer,
            # and resilience must stay importable from core.config.
            from repro.datasets.store import fsync_dir

            fsync_dir(self.path.parent)

    # -- reading -------------------------------------------------------

    def replay(self) -> List[dict]:
        """Every intact retained record, oldest first — sealed segments
        in sequence order, then the active tail (torn tail tolerated)."""
        records: List[dict] = []
        for segment in self._segments:
            records.extend(self.segment_records(segment.seq))
        if self.path.exists():
            active, _ = decode_records(self.path.read_bytes())
            records.extend(active)
        return records

    def segments(self) -> List[SegmentInfo]:
        """The sealed segments, oldest first (a stable copy)."""
        with self._lock:
            return list(self._segments)

    def segment_bytes(self, seq: int) -> bytes:
        """Raw crc-framed bytes of sealed segment ``seq`` — the unit a
        replica streams.  Raises :class:`JournalError` when the segment
        was already folded away (the replica re-bootstraps)."""
        with self._lock:
            for segment in self._segments:
                if segment.seq == seq:
                    return segment.path.read_bytes()
        raise JournalError(f"no sealed segment {seq} (folded or never cut)")

    def segment_records(self, seq: int) -> List[dict]:
        """Decoded records of sealed segment ``seq``."""
        records, _ = decode_records(self.segment_bytes(seq))
        return records

    # -- appending -----------------------------------------------------

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: dict) -> None:
        """Frame, append, flush, fsync — returns only once durable.
        Rolls the active file into a sealed segment when a rotation
        threshold trips.

        Once the epoch is non-zero every record is stamped with it
        (``"epoch"`` key), so a reader can tell which leadership term
        produced it.  Epoch-0 journals stay byte-identical to the
        pre-epoch format.
        """
        if self.epoch and "epoch" not in record:
            record = dict(record)
            record["epoch"] = self.epoch
        with self._lock:
            inject("journal.append")
            self._append_locked(encode_record(record))

    def _append_locked(self, frame: bytes) -> None:
        handle = self._open()
        try:
            handle.write(frame)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError:
            # A partial frame would tear the log here instead of at
            # the tail; roll back to the last known-good boundary
            # (best effort — replay truncates torn bytes anyway).
            try:
                handle.truncate(self.active_bytes)
            except OSError:
                pass
            raise
        self.active_records += 1
        self.active_bytes += len(frame)
        if self._should_roll():
            self._roll_locked()

    def bump_epoch(self, epoch: Optional[int] = None) -> int:
        """Advance the epoch durably — the promotion fence.

        Appends an fsynced ``{"op": "epoch"}`` marker record and
        rewrites the manifest *before* returning, so by the time a
        promoted node acknowledges its first write the new epoch is on
        disk: recovery (and every replica applying the shipped marker)
        knows records stamped below it came from a deposed leader.
        Defaults to ``current + 1``; an explicit ``epoch`` must be
        higher than the current one.
        """
        with self._lock:
            new = self.epoch + 1 if epoch is None else int(epoch)
            if new <= self.epoch:
                raise JournalError(
                    f"epoch must increase (current {self.epoch}, "
                    f"requested {new})"
                )
            self._append_locked(
                encode_record({"op": "epoch", "epoch": new})
            )
            self.epoch = new
            self._write_manifest()
            return new

    def _should_roll(self) -> bool:
        if (
            self.max_segment_records is not None
            and self.active_records >= self.max_segment_records
        ):
            return True
        return (
            self.max_segment_bytes is not None
            and self.active_bytes >= self.max_segment_bytes
        )

    # -- segment rotation ---------------------------------------------

    def roll(self) -> Optional[SegmentInfo]:
        """Seal the active file into an immutable numbered segment.

        No-op (returns ``None``) when the active file is empty.  The
        rename is atomic and the content was fsynced by the appends, so
        a crash at any point leaves either the old layout or the new —
        recovery reconciles from the files, not the manifest.
        """
        with self._lock:
            return self._roll_locked()

    def _roll_locked(self) -> Optional[SegmentInfo]:
        if self.active_records == 0:
            return None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        seq = (self._segments[-1].seq + 1) if self._segments else 1
        segment = SegmentInfo(
            seq=seq,
            base_record=self.active_base_record,
            n_records=self.active_records,
            n_bytes=self.active_bytes,
            path=self._segment_path(seq),
        )
        self.path.replace(segment.path)
        self._segments.append(segment)
        self.active_records = 0
        self.active_bytes = 0
        self._write_manifest()
        return segment

    def drop_sealed(self) -> int:
        """Delete every sealed segment (their records were folded into a
        durable snapshot).  Advances ``base_record`` so global positions
        stay monotonic.  Returns the number of records dropped."""
        with self._lock:
            dropped = 0
            for segment in self._segments:
                dropped += segment.n_records
                segment.path.unlink(missing_ok=True)
            self._segments = []
            if dropped:
                self.base_record += dropped
                self._write_manifest()
            return dropped

    # -- folding into a snapshot --------------------------------------

    def truncate(self) -> None:
        """Empty the journal (its contents were folded into a snapshot).

        Crash-ordering matters: the caller must have durably written the
        snapshot *first* — this replaces the active log with an empty
        file via rename, deletes every sealed segment, and fsyncs the
        directory, so a crash on either side of the replace leaves
        snapshot+journal consistent.  ``base_record`` advances past the
        dropped records.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            dropped = self.n_records
            for segment in self._segments:
                segment.path.unlink(missing_ok=True)
            self._segments = []
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with open(tmp, "wb") as handle:
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            tmp.replace(self.path)
            self._fsync_parent()
            self.base_record += dropped
            self.active_records = 0
            self.active_bytes = 0
            self._write_manifest()

    # -- observability -------------------------------------------------

    def manifest(self) -> Dict[str, object]:
        """The shipping manifest a replica polls: sealed segments with
        their global positions, plus where the log currently ends."""
        with self._lock:
            return {
                "base_record": self.base_record,
                "next_record": self.next_record,
                "active_records": self.active_records,
                "epoch": self.epoch,
                "sealed": [
                    {
                        "seq": s.seq,
                        "base_record": s.base_record,
                        "records": s.n_records,
                        "bytes": s.n_bytes,
                    }
                    for s in self._segments
                ],
            }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "DirectoryJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_journal(
    path: Optional[Union[str, Path]], fsync: bool = True, **kwargs
) -> Optional[DirectoryJournal]:
    """``None``-propagating constructor (directory plumbing helper)."""
    if path is None:
        return None
    if isinstance(path, DirectoryJournal):
        return path
    return DirectoryJournal(path, fsync=fsync, **kwargs)


__all__ = [
    "DirectoryJournal",
    "JournalError",
    "MAX_RECORD_BYTES",
    "SegmentInfo",
    "StaleEpochError",
    "decode_records",
    "encode_record",
    "open_journal",
    "record_epoch",
]
