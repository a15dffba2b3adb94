"""Persistence for tuned mappings.

The paper tunes each model's LUT kernels once, offline (§5.3: "each model
need to be tuned only once"), and ships the mapping parameters with the
model.  :class:`MappingCache` is that artifact: a directory with one entry
file per LUT shape, amortization mode and platform fingerprint, on the
shared :class:`repro.obs.entries.EntryDirectory` (``mapping_cache.*``
counters).  :class:`~repro.mapping.tuner.AutoTuner` consults it before
any search (warm start) and fills it after; ``repro tune --cache DIR``
writes one, and ``repro simulate --cache DIR`` reads it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

from ..core.codebook import LUTShape
from ..obs.entries import EntryDirectory
from ..pim.platforms import PIMPlatform
from .analytical import LatencyBreakdown
from .space import Mapping
from .tuner import TuningResult

#: Bumped whenever the on-disk entry schema changes; readers skip entry
#: files written under any other version.
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


def _entry_key(shape: LUTShape, amortize: bool) -> str:
    mode = "amortized" if amortize else "full"
    return f"n{shape.n}_h{shape.h}_f{shape.f}_v{shape.v}_ct{shape.ct}-{mode}"


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
