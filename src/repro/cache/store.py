"""Content-addressed, on-disk store for simulation results.

Layout: one JSON file per entry at ``<root>/<key[:2]>/<key>.json``
(two-level sharding keeps directory listings sane for large caches).
Waveform arrays are stored as base64 of their raw little-endian float64
bytes — **bit-exact**, not decimal-rounded — so a cache hit returns the
very same floats the solver produced.  Writes are atomic (temp file +
``os.replace``), so a killed process can never leave a half-written
entry where a later read would trust it; any entry that fails to load —
truncated file, corrupt JSON, wrong schema — is treated as a miss and
the broken file removed, never as an error.

Activation is process-global and **off by default**: nothing changes for
callers until :func:`enable` is called (or the ``REPRO_CACHE_DIR``
environment variable is set, which is how forked/spawned pool workers
inherit the parent's cache).  :func:`bypassed` suspends lookups in a
scope — used where a real solve is the point (cache verification, the
recovery ladder's shrink candidates).
"""

from __future__ import annotations

import base64
import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import CacheError
from repro.serialize import Serializable

#: Environment variable carrying the active cache root (set by
#: :func:`enable` so pool workers join the parent's cache).
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Entry kinds the store understands.
ENTRY_KINDS = ("transient", "dc")


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    data = np.ascontiguousarray(array, dtype=np.float64)
    return {"shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(blob: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(blob["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.float64)
    return array.reshape([int(n) for n in blob["shape"]]).copy()


@dataclass
class CacheEntry(Serializable):
    """One stored analysis result, self-describing and replayable.

    ``request`` is the full key-derivation record (including the
    constructive circuit fingerprint), ``result`` the kind-specific
    payload with arrays in encoded form.  ``created`` is a wall-clock
    stamp for human inspection; eviction order uses file mtimes, which
    ``load``/``get`` refresh on every hit (LRU, not FIFO).
    """

    SCHEMA_NAME = "CacheEntry"
    SCHEMA_VERSION = 1

    key: str
    kind: str
    request: Dict[str, Any]
    result: Dict[str, Any]
    created: float = field(default_factory=time.time)

    def payload(self) -> Dict[str, Any]:
        return {"key": self.key, "kind": self.kind, "request": self.request,
                "result": self.result, "created": self.created}

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "CacheEntry":
        try:
            entry = cls(key=str(data["key"]), kind=str(data["kind"]),
                        request=dict(data["request"]),
                        result=dict(data["result"]),
                        created=float(data.get("created", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed cache entry: {exc}") from exc
        if entry.kind not in ENTRY_KINDS:
            raise CacheError(f"unknown cache entry kind {entry.kind!r}")
        return entry


class ResultCache:
    """Content-addressed store rooted at one directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(str(root))
        os.makedirs(self.root, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    # -- entry I/O ---------------------------------------------------------

    def load(self, key: str) -> Optional[CacheEntry]:
        """The stored entry for ``key``, or ``None`` on miss.

        *Any* failure to read or parse — truncated write, corrupted
        bytes, foreign schema — counts as a miss; the unusable file is
        removed so it cannot shadow a future store.
        """
        import json

        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = CacheEntry.from_json(json.load(handle))
            if entry.key != key:
                raise CacheError(f"entry at {path} claims key {entry.key!r}")
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 — a broken entry must read as a miss
            with contextlib.suppress(OSError):
                os.remove(path)
            return None
        # Refresh the LRU clock.
        with contextlib.suppress(OSError):
            os.utime(path, None)
        return entry

    def store(self, entry: CacheEntry) -> str:
        """Atomically write an entry; returns its path.

        Concurrent writers of the same key are safe: both produce
        byte-identical content and ``os.replace`` is atomic, so the last
        rename wins and readers only ever see complete files.
        """
        import json

        path = self.path_for(entry.key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            prefix=f".{entry.key[:8]}.", suffix=".tmp",
            dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry.to_json(), handle)
            os.replace(temp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temp_path)
            raise
        return path

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry count and byte total of the store (on-disk truth)."""
        paths = self._entry_paths()
        total = 0
        for path in paths:
            with contextlib.suppress(OSError):
                total += os.path.getsize(path)
        return {"root": self.root, "entries": len(paths), "bytes": total}

    def gc(self, max_bytes: int) -> Dict[str, Any]:
        """Least-recently-used eviction down to ``max_bytes``.

        Entries are removed oldest-mtime-first (``load`` touches files on
        every hit, so mtime order *is* recency order) until the store
        fits the bound.  Returns ``{"removed": n, "freed": bytes,
        "remaining": bytes}``.
        """
        if max_bytes < 0:
            raise CacheError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._entry_paths():
            with contextlib.suppress(OSError):
                stat = os.stat(path)
                entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()
        total = sum(size for _, _, size in entries)
        removed = 0
        freed = 0
        for _mtime, path, size in entries:
            if total <= max_bytes:
                break
            with contextlib.suppress(OSError):
                os.remove(path)
                removed += 1
                freed += size
                total -= size
        return {"removed": removed, "freed": freed, "remaining": total}

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self._entry_paths():
            with contextlib.suppress(OSError):
                os.remove(path)
                removed += 1
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                with contextlib.suppress(OSError):
                    os.rmdir(shard_dir)
        return removed

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over every readable entry (unreadable ones skipped)."""
        import json

        for path in self._entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    yield CacheEntry.from_json(json.load(handle))
            except Exception:  # noqa: BLE001 — sweep past broken files
                continue


# ---------------------------------------------------------------------------
# Process-global activation
# ---------------------------------------------------------------------------

_active: Optional[ResultCache] = None
_bypass_depth = 0


def enable(root: str) -> ResultCache:
    """Activate result caching for this process (and, via the
    :data:`CACHE_ENV_VAR` environment variable, for pool workers it
    spawns).  Returns the active :class:`ResultCache`."""
    global _active
    _active = ResultCache(root)
    os.environ[CACHE_ENV_VAR] = _active.root
    return _active


def disable() -> None:
    """Deactivate result caching for this process."""
    global _active
    _active = None
    os.environ.pop(CACHE_ENV_VAR, None)


def get_active_cache() -> Optional[ResultCache]:
    """The cache analyses should consult right now, or ``None``.

    Resolution order: an explicit :func:`enable` wins; otherwise the
    :data:`CACHE_ENV_VAR` environment variable (how pool workers inherit
    the parent's cache) activates lazily.  Returns ``None`` inside a
    :func:`bypassed` scope.
    """
    global _active
    if _bypass_depth > 0:
        return None
    if _active is not None:
        return _active
    root = os.environ.get(CACHE_ENV_VAR)
    if root:
        _active = ResultCache(root)
        return _active
    return None


@contextlib.contextmanager
def bypassed() -> Iterator[None]:
    """Scope in which analyses ignore the cache entirely (no lookups, no
    stores).  Used wherever a *real* solve is the point — cache
    verification recomputes, the recovery ladder's shrink candidates."""
    global _bypass_depth
    _bypass_depth += 1
    try:
        yield
    finally:
        _bypass_depth -= 1


def wipe(root: str) -> None:
    """Delete a cache directory tree entirely (CLI ``cache clear``)."""
    shutil.rmtree(root, ignore_errors=True)
