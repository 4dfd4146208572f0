"""Content-addressed JSON blob store: the one persistence layer on disk.

:class:`BlobStore` files one schema-stamped JSON entry per digest,

    {"digest": ..., "key": ..., <ENTRY>: payload, "schema_version": ...}

sharded by digest prefix (``<root>/ab/abcdef....json``) so directories
stay small at millions of entries.  Two typed views sit on top of it:
:class:`repro.store.ResultStore` (analysis reports, entry key
``report``) and :class:`repro.mc.cache.McVerdictCache` (model-checking
verdicts, entry key ``result``).  A view sets the class attributes
below and, where its values are not plain JSON, the
:meth:`~BlobStore.encode`/:meth:`~BlobStore.decode` hooks.

Two rules hold for every file written here, and the module-level
helpers extend them to the fuzz corpus and the serve journal, which
keep their own flat layouts:

- **atomic writes** (:func:`write_atomic`) — temp file in the target's
  directory, ``fsync``, ``os.replace``: a reader sees the old file or
  the new one, never a torn mix, even across a crash;
- **quarantine-as-miss** (:func:`quarantine`) — a file that cannot be
  decoded is moved to a ``quarantine/`` directory and treated as
  absent, so one bad file never fails a reader or poisons later
  lookups of the same digest.

Traffic is counted in the :mod:`repro.obs` registry under the view's
``METRICS`` prefix (``<prefix>hits``, ``misses``, ``writes``,
``quarantined``).  This module imports only :mod:`repro.obs` and
:mod:`repro.schema`, so any layer — :mod:`repro.mc` included — can
build on it without an import cycle.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Generic, List, Optional, Type, TypeVar

from . import obs, schema

__all__ = ["BlobStore", "BlobStoreError", "quarantine", "write_atomic"]

T = TypeVar("T")

_HEX = frozenset("0123456789abcdef")


class BlobStoreError(Exception):
    """Raised for malformed store operations (bad digests)."""


def write_atomic(path: Path, text: str, metrics: str) -> None:
    """Replace ``path`` with ``text`` atomically and durably.

    ``metrics`` is the counter prefix; a temp file that cannot be
    cleaned up after a failed write counts ``<metrics>tmp_unlink_failures``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.stem[:8]}-",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            obs.count(f"{metrics}tmp_unlink_failures")
        raise


def quarantine(path: Path, directory: Path, metrics: str) -> None:
    """Move an undecodable ``path`` into ``directory``.

    Counts ``<metrics>quarantined``, or ``<metrics>quarantine_failures``
    when the file is already gone (a concurrent reader moved it first).
    """
    directory.mkdir(parents=True, exist_ok=True)
    try:
        os.replace(path, directory / path.name)
    except OSError:
        obs.count(f"{metrics}quarantine_failures")
        return
    obs.count(f"{metrics}quarantined")


class BlobStore(Generic[T]):
    """JSON-on-disk content-addressed store, sharded by digest prefix."""

    QUARANTINE = "quarantine"
    #: the entry field holding the payload
    ENTRY = "payload"
    #: counter prefix in the obs registry
    METRICS = "blobstore."
    #: payload kind named in schema-version errors
    KIND = "blob entry"
    #: raised for malformed digests
    ERROR: Type[Exception] = BlobStoreError

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def encode(self, value: T) -> Any:
        """The JSON payload filed for ``value`` (identity by default)."""
        return value

    def decode(self, payload: Any) -> T:
        """The value for a stored payload; raising quarantines the entry."""
        return payload

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        if len(digest) < 3 or not _HEX.issuperset(digest):
            raise self.ERROR(f"malformed digest {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    def put(self, digest: str, value: T,
            key: Optional[Dict] = None) -> Path:
        """File ``value`` under its digest (atomic; last writer wins)."""
        entry = schema.stamp({
            "digest": digest,
            "key": key,
            self.ENTRY: self.encode(value),
        })
        path = self.path_for(digest)
        write_atomic(path, json.dumps(entry, sort_keys=True, default=str),
                     self.METRICS)
        obs.count(f"{self.METRICS}writes")
        return path

    def get(self, digest: str) -> Optional[T]:
        """The stored value, or ``None`` on a miss.

        An entry that is unparseable, filed under another digest,
        declares an unknown wire-format major or fails :meth:`decode`
        is quarantined and reported as a miss.
        """
        path = self.path_for(digest)
        try:
            text = path.read_text()
        except OSError:
            obs.count(f"{self.METRICS}misses")
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise ValueError(f"entry is {type(entry).__name__}, "
                                 f"not an object")
            schema.check(entry, self.KIND)
            if entry.get("digest") != digest:
                raise ValueError(f"digest mismatch: entry says "
                                 f"{entry.get('digest')!r}")
            value = self.decode(entry[self.ENTRY])
        except (ValueError, KeyError, TypeError):
            quarantine(path, self.root / self.QUARANTINE, self.METRICS)
            obs.count(f"{self.METRICS}misses")
            return None
        obs.count(f"{self.METRICS}hits")
        return value

    def contains(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    # ------------------------------------------------------------------
    def digests(self) -> List[str]:
        """Every digest currently filed (sorted; excludes quarantine)."""
        found = []
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == self.QUARANTINE:
                continue
            for entry in sorted(shard.glob("*.json")):
                found.append(entry.stem)
        return found

    def stats(self) -> Dict[str, int]:
        quarantine_dir = self.root / self.QUARANTINE
        quarantined = (sum(1 for _ in quarantine_dir.iterdir())
                       if quarantine_dir.is_dir() else 0)
        return {"entries": len(self.digests()),
                "quarantined": quarantined}
