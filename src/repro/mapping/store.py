"""Persistence for tuned mappings.

The paper tunes each model's LUT kernels once, offline (§5.3: "each model
need to be tuned only once"), and ships the mapping parameters with the
model.  Two persistence layers implement that workflow:

* :class:`MappingStore` — a single-file JSON registry of tuning results,
  the artifact a model ships with (``repro tune --store FILE``);
* :class:`MappingCache` — a cross-run cache directory, one entry file per
  LUT shape and platform fingerprint, on the shared
  :class:`repro.obs.entries.EntryDirectory` (``mapping_cache.*``
  counters).  :class:`~repro.mapping.tuner.AutoTuner` consults it before
  any search (warm start) and fills it after.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from typing import Dict, Optional, Tuple

from ..core.codebook import LUTShape
from ..obs.entries import EntryDirectory, atomic_write_json, read_json_object
from ..pim.platforms import PIMPlatform
from .analytical import LatencyBreakdown
from .space import Mapping
from .tuner import TuningResult

#: Bumped whenever the on-disk entry schema changes; readers skip (cache)
#: or reject (store) files written under any other version.
FORMAT_VERSION = 2


def mapping_to_dict(mapping: Mapping) -> dict:
    return {
        "n_s_tile": mapping.n_s_tile,
        "f_s_tile": mapping.f_s_tile,
        "n_m_tile": mapping.n_m_tile,
        "f_m_tile": mapping.f_m_tile,
        "cb_m_tile": mapping.cb_m_tile,
        "traversal": list(mapping.traversal),
        "load_scheme": mapping.load_scheme,
        "cb_load_tile": mapping.cb_load_tile,
        "f_load_tile": mapping.f_load_tile,
    }


def mapping_from_dict(data: dict) -> Mapping:
    return Mapping(
        n_s_tile=int(data["n_s_tile"]),
        f_s_tile=int(data["f_s_tile"]),
        n_m_tile=int(data["n_m_tile"]),
        f_m_tile=int(data["f_m_tile"]),
        cb_m_tile=int(data["cb_m_tile"]),
        traversal=tuple(data["traversal"]),
        load_scheme=data["load_scheme"],
        cb_load_tile=int(data["cb_load_tile"]),
        f_load_tile=int(data["f_load_tile"]),
    )


def platform_fingerprint(platform: PIMPlatform) -> str:
    """Stable content hash of every constant that shapes tuning results.

    Any change to the platform model — bandwidths, buffer sizes, PE
    counts, extras — yields a new fingerprint, so cached mappings tuned
    against an older hardware description are never silently reused.
    """
    payload = dataclasses.asdict(platform)
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _shape_key(shape: LUTShape) -> str:
    return f"n{shape.n}_h{shape.h}_f{shape.f}_v{shape.v}_ct{shape.ct}"


def _shape_to_dict(shape: LUTShape) -> dict:
    return {"n": shape.n, "h": shape.h, "f": shape.f, "v": shape.v, "ct": shape.ct}


def _shape_from_dict(data: dict) -> LUTShape:
    return LUTShape(**{k: int(data[k]) for k in ("n", "h", "f", "v", "ct")})


def _result_to_entry(platform_name: str, result: TuningResult) -> dict:
    return {
        "platform": platform_name,
        "shape": _shape_to_dict(result.shape),
        "mapping": mapping_to_dict(result.mapping),
        "latency_s": result.latency.total,
        "breakdown": {
            "sub_index": result.latency.sub_index,
            "sub_lut": result.latency.sub_lut,
            "sub_output": result.latency.sub_output,
            "kernel_transfer": result.latency.kernel_transfer,
            "kernel_reduce": result.latency.kernel_reduce,
            "launch": result.latency.launch,
        },
        "candidates_evaluated": result.candidates_evaluated,
    }


def _result_from_entry(entry: dict) -> TuningResult:
    breakdown = entry["breakdown"]
    return TuningResult(
        shape=_shape_from_dict(entry["shape"]),
        mapping=mapping_from_dict(entry["mapping"]),
        latency=LatencyBreakdown(**{k: float(breakdown[k]) for k in breakdown}),
        candidates_evaluated=int(entry["candidates_evaluated"]),
    )


class MappingStore:
    """A JSON-backed registry of tuned mappings, keyed by platform, shape
    and amortization mode (``AutoTuner(amortize_lut_distribution=)``).

    Full-mode entries keep the ``platform::shape`` key of older files, which
    hold no amortized entries.  Entries are validated once, at load.
    Constructing with a path loads it *leniently*, so a damaged artifact
    degrades to re-tuning: an unusable file starts an empty store and a
    malformed entry is dropped, each with a ``RuntimeWarning``.  The
    explicit :meth:`load` raises ``ValueError``.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._entries: Dict[Tuple[str, LUTShape, bool], TuningResult] = {}
        if path and os.path.exists(path):
            try:
                self._load(path, strict=False)
            except (ValueError, OSError) as exc:
                warnings.warn(
                    f"ignoring unusable mapping store {path!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """``(platform_name, shape)``, or with the amortization mode third."""
        return self.get(*key) is not None

    @staticmethod
    def _key(platform_name: str, shape: LUTShape, amortize: bool) -> str:
        suffix = "-amortized" if amortize else ""
        return f"{platform_name}::{_shape_key(shape)}{suffix}"

    def put(self, platform_name: str, result: TuningResult, amortize: bool = False) -> None:
        """Record a tuning result."""
        self._entries[(platform_name, result.shape, amortize)] = result

    def get(
        self, platform_name: str, shape: LUTShape, amortize: bool = False
    ) -> Optional[TuningResult]:
        """Load a previously tuned mapping, or None when absent."""
        return self._entries.get((platform_name, shape, amortize))

    def save(self, path: Optional[str] = None) -> str:
        """Atomically write the registry to JSON; returns the path written."""
        path = path or self.path
        if not path:
            raise ValueError("no path given to save the mapping store")
        entries = {
            self._key(platform_name, shape, amortize): {
                **_result_to_entry(platform_name, result),
                "amortize_lut_distribution": amortize,
            }
            for (platform_name, shape, amortize), result in self._entries.items()
        }
        atomic_write_json(path, {"version": FORMAT_VERSION, "entries": entries})
        self.path = path
        return path

    def load(self, path: str) -> None:
        """Strictly load ``path``; raises ValueError on any unusable content."""
        self._load(path, strict=True)

    def _load(self, path: str, strict: bool) -> None:
        try:
            payload = read_json_object(path)
        except ValueError as exc:
            raise ValueError(f"corrupt mapping store: {exc}") from exc
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported mapping store version {version!r}")
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise ValueError("corrupt mapping store: no entries object")
        loaded: Dict[Tuple[str, LUTShape, bool], TuningResult] = {}
        for key, entry in entries.items():
            try:
                platform_name, result = entry["platform"], _result_from_entry(entry)
                amortize = entry.get("amortize_lut_distribution", False) is True
                if key != self._key(platform_name, result.shape, amortize):
                    raise ValueError("key does not match the entry's platform/shape/mode")
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed entry {key!r} in mapping store {path!r}: {exc}"
                if strict:
                    raise ValueError(reason) from exc
                warnings.warn(f"dropping {reason}", RuntimeWarning, stacklevel=3)
                continue
            loaded[(platform_name, result.shape, amortize)] = result
        self._entries = loaded
        self.path = path


def _entry_key(shape: LUTShape, amortize: bool) -> str:
    return f"{_shape_key(shape)}-{'amortized' if amortize else 'full'}"


class MappingCache:
    """Persistent cross-run tuning cache: one JSON file per ``(platform
    fingerprint, LUT shape, amortization mode, FORMAT_VERSION)``, with the
    atomic writes and lenient reads of
    :class:`repro.obs.entries.EntryDirectory`."""

    def __init__(self, directory: str):
        self.directory = os.path.expanduser(directory)
        self._entries = EntryDirectory(
            self.directory, "mapping_cache", FORMAT_VERSION, "version", "entry"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MappingCache({self.directory!r})"

    def entry_path(
        self, platform: PIMPlatform, shape: LUTShape, amortize: bool = False
    ) -> str:
        return self._entries.path(
            platform_fingerprint(platform), _entry_key(shape, amortize)
        )

    def __len__(self) -> int:
        """Number of entry files for the current FORMAT_VERSION."""
        return len(self._entries)

    def get(
        self, platform: PIMPlatform, shape: LUTShape, amortize: bool = False
    ) -> Optional[TuningResult]:
        """Warm-start lookup; None on miss or any unusable entry file."""

        def decode(entry) -> TuningResult:
            result = _result_from_entry(entry)
            if result.shape != shape:
                raise ValueError("shape mismatch")
            return result

        return self._entries.get(
            platform_fingerprint(platform), _entry_key(shape, amortize), decode
        )

    def put(
        self, platform: PIMPlatform, result: TuningResult, amortize: bool = False
    ) -> str:
        """Atomically persist one tuning result; returns the entry path."""
        return self._entries.put(
            platform_fingerprint(platform),
            _entry_key(result.shape, amortize),
            _result_to_entry(platform.name, result),
            amortize_lut_distribution=amortize,
        )
