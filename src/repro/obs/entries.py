"""The entry directory behind :class:`repro.mapping.MappingCache` and
:class:`repro.kernels.KernelScheduleCache`: standard library only, so both
``repro.kernels`` and ``repro.mapping`` may build on it.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from . import get_registry

T = TypeVar("T")


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON via a unique temp file + ``os.replace``.

    Concurrent writers each stage their own ``<name>.tmp-*`` file next to
    ``path``; the last rename wins and readers only see complete files.
    """
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".tmp-",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_json_object(path: str) -> dict:
    """Parse ``path`` as a UTF-8 JSON object; ``ValueError`` on any content
    that is not one, ``OSError`` when the file cannot be read."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"not a JSON object but {type(payload).__name__}")
    return payload


@dataclass(frozen=True)
class EntryDirectory:
    """One JSON file per entry, named ``v{version}-{fingerprint}-{key}.json``,
    so a lookup is a single ``open()`` with no index and no lock.

    Each file holds ``{version_field: version, "fingerprint": ...,
    body_field: body}`` plus any extra keys the writer adds.  Reads are
    lenient: an unreadable, non-object, wrong-version, wrong-fingerprint
    or malformed entry is a warned miss, never an error.  The counters
    ``<family>.hits/misses/rejected/writes`` count a rejected entry as a
    miss too, so ``hits + misses`` is the number of lookups.
    """

    root: str
    family: str
    version: int
    version_field: str
    body_field: str

    def path(self, fingerprint: str, key: str) -> str:
        return os.path.join(self.root, f"v{self.version}-{fingerprint}-{key}.json")

    def __len__(self) -> int:
        """Number of entry files for the current version."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        prefix = f"v{self.version}-"
        return sum(1 for n in names if n.startswith(prefix) and n.endswith(".json"))

    def get(
        self, fingerprint: str, key: str, decode: Callable[[object], T]
    ) -> Optional[T]:
        """The decoded body under ``key``, or None on a miss; ``decode``
        raises KeyError/TypeError/ValueError to reject a malformed body."""
        path = self.path(fingerprint, key)
        try:
            payload = read_json_object(path)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError) as exc:
            return self._reject(path, f"unreadable entry: {exc}")
        version = payload.get(self.version_field)
        if version != self.version:
            return self._reject(path, f"format version {version!r}")
        if payload.get("fingerprint") != fingerprint:
            return self._reject(path, "fingerprint mismatch")
        try:
            value = decode(payload[self.body_field])
        except (KeyError, TypeError, ValueError) as exc:
            return self._reject(path, f"malformed entry: {exc}")
        self._count("hits")
        return value

    def put(self, fingerprint: str, key: str, body: dict, **extra) -> str:
        """Atomically write one entry; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path(fingerprint, key)
        atomic_write_json(path, {
            self.version_field: self.version,
            "fingerprint": fingerprint,
            self.body_field: body,
            **extra,
        })
        self._count("writes")
        return path

    def _count(self, name: str) -> None:
        get_registry().counter(f"{self.family}.{name}").inc()

    def _reject(self, path: str, reason: str) -> None:
        self._count("rejected")
        self._count("misses")
        message = f"skipping {self.family} entry {path!r}: {reason}"
        warnings.warn(message, RuntimeWarning, stacklevel=4)
