"""On-disk JSON result cache for experiment tasks.

Layout: one file per task under ``<root>/<experiment>/<key>.json`` where
``key`` comes from :func:`repro.engine.hashing.task_key`.  Because the key
encodes the code version, stale entries (written by older code) are simply
never looked up again; ``clean`` removes them.  Writes go through
:func:`repro.storage.write_file_atomic` (temp file + fsync + ``os.replace``)
so an interrupted sweep never leaves a half-written entry, which is what
makes resume-after-interrupt free.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.storage import write_file_atomic

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """Cache root from ``$REPRO_CACHE_DIR``, else ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultCache:
    """Filesystem-backed cache of task result payloads.

    Payloads are plain dicts (see :meth:`repro.experiments.base.ExperimentResult.to_dict`
    wrapped with task metadata by the runner); this class only handles
    durable storage and lookup.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, experiment: str, key: str) -> Path:
        """Path of the cache entry for (*experiment*, *key*)."""
        return self.root / experiment / f"{key}.json"

    def get(self, experiment: str, key: str) -> Optional[Dict[str, Any]]:
        """Stored payload, or ``None`` on a miss.  Corrupt entries read as misses."""
        path = self.path_for(experiment, key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # A torn or unreadable entry must never poison a sweep; treat it
            # as a miss and let the fresh result overwrite it.
            return None

    def put(self, experiment: str, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist *payload*; returns the entry path."""
        path = self.path_for(experiment, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_file_atomic(path, json.dumps(payload))
        return path

    def entries(self, experiment: Optional[str] = None) -> List[Path]:
        """Paths of stored entries, optionally restricted to one experiment."""
        if not self.root.is_dir():
            return []
        roots = [self.root / experiment] if experiment else sorted(self.root.iterdir())
        found: List[Path] = []
        for directory in roots:
            if directory.is_dir():
                found.extend(sorted(directory.glob("*.json")))
        return found

    def clear(self, experiment: Optional[str] = None) -> int:
        """Delete entries (all, or one experiment's); returns the count removed."""
        removed = 0
        for path in self.entries(experiment):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size_bytes(self) -> int:
        """Total size of all stored entries."""
        return sum(path.stat().st_size for path in self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    def __iter__(self) -> Iterator[Path]:
        return iter(self.entries())
