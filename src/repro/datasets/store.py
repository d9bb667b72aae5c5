"""JSON storage for form-page datasets.

Also home of the shared durable-write helper: every artifact this
library persists (datasets, organized directories, service snapshots)
goes through :func:`atomic_write_bytes` — write to a tmp file, flush,
``fsync``, then ``os.replace`` — so a crash or power loss mid-write
never leaves a truncated or missing artifact behind.
"""

import gzip
import json
import os
from pathlib import Path
from typing import Dict, List, Union

from repro.core.form_page import RawFormPage

# Format marker so future layout changes can stay loadable.
_FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """A stored artifact has an unknown or incompatible format version.

    ``found_version`` carries whatever version marker the file declared
    (possibly ``None``), so callers can tell "newer tool wrote this"
    from "this is not one of our files at all".
    """

    def __init__(self, path, found_version, expected_version) -> None:
        self.path = str(path)
        self.found_version = found_version
        self.expected_version = expected_version
        super().__init__(
            f"{path}: unsupported format_version {found_version!r} "
            f"(this build reads version {expected_version!r})"
        )


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a *directory*, making renames inside it durable.

    ``os.replace`` updates the parent directory's entries; until the
    directory inode itself is flushed, a crash can forget the rename
    even though the file's bytes were fsynced.  Best-effort on
    platforms that refuse directory fds (Windows raises; some network
    filesystems return EINVAL) — those offer no stronger primitive.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(data: bytes, path: Union[str, Path]) -> None:
    """Durably write ``data`` to ``path``.

    The bytes land in ``<path>.tmp`` first and are fsynced *before* the
    rename, and the parent directory is fsynced *after* it — so the
    replace is atomic on POSIX, the data is on disk when it happens,
    and the rename itself survives a crash.  A crashed run leaves
    either the old file or the new one, never a torn half-write.
    """
    path = Path(path)
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    tmp_path.replace(path)
    fsync_dir(path.parent)


def atomic_write_json(
    payload: object, path: Union[str, Path], compress: bool = False
) -> None:
    """Durably write ``payload`` as JSON to ``path`` (see
    :func:`atomic_write_bytes`).  ``compress`` gzips the payload (the
    convention: pass it for paths ending in ``.gz``)."""
    data = json.dumps(payload).encode("utf-8")
    if compress:
        data = gzip.compress(data, mtime=0)
    atomic_write_bytes(data, path)


def read_json(path: Union[str, Path]) -> object:
    """Read a JSON artifact written by :func:`atomic_write_json`,
    transparently handling gzip (detected by magic bytes, not name)."""
    path = Path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return json.loads(data.decode("utf-8"))


def save_dataset(pages: List[RawFormPage], path: Union[str, Path]) -> None:
    """Write ``pages`` to ``path`` as JSON (atomic + fsynced; see
    :func:`atomic_write_json`)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "n_pages": len(pages),
        "pages": [
            {
                "url": page.url,
                "html": page.html,
                "backlinks": list(page.backlinks),
                "label": page.label,
            }
            for page in pages
        ],
    }
    atomic_write_json(payload, path)


def load_dataset(path: Union[str, Path]) -> List[RawFormPage]:
    """Load a dataset written by :func:`save_dataset`.

    Raises :class:`DatasetFormatError` on an unknown ``format_version``
    and ValueError on structural problems, with a message naming what is
    wrong.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DatasetFormatError(path, version, _FORMAT_VERSION)
    pages_field = payload.get("pages")
    if not isinstance(pages_field, list):
        raise ValueError(f"{path}: 'pages' must be a list")
    pages: List[RawFormPage] = []
    for index, entry in enumerate(pages_field):
        try:
            pages.append(
                RawFormPage(
                    url=entry["url"],
                    html=entry["html"],
                    backlinks=list(entry.get("backlinks", [])),
                    label=entry.get("label"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed page entry {index}: {exc}") from exc
    return pages


def dataset_info(path: Union[str, Path]) -> Dict[str, object]:
    """Summary of a stored dataset without materializing RawFormPage
    objects (cheap sanity check for CLIs and tests)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    pages = payload.get("pages", [])
    labels: Dict[str, int] = {}
    for entry in pages:
        label = entry.get("label") or "?"
        labels[label] = labels.get(label, 0) + 1
    return {
        "format_version": payload.get("format_version"),
        "n_pages": len(pages),
        "labels": labels,
    }
