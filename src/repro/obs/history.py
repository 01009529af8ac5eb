"""The append-only run-history store (``repro.obs.history``).

One NDJSON file per run *kind* (``schedule``, ``sweep``, ``fuzz``,
``chaos`` …) under a history directory, one provenance-stamped
:class:`RunRecord` per line.  The store never rewrites a line: records
accumulate across sessions, so ``repro obs regressions`` can fit a
baseline from genuinely historical data and ``repro obs diff`` can
compare any two runs or windows.

Design rules (all load-bearing for tests and ``repro obs regressions``):

* **Provenance** — every record carries the engine version
  (``repro.__version__``) and a ``config_hash`` (sha256 of the
  canonical-JSON config), so a baseline is only fit from runs of the
  same code + configuration + workload + topology.
* **Byte stability** — serialization is sorted-key, separator-pinned
  JSON with floats rounded to fixed precision; a record built from the
  same inputs and the same clock value is byte-identical.  The clock is
  injectable (``clock=``) precisely so tests can pin it.
* **Zero dependencies** — stdlib only, like the rest of ``repro.obs``
  (pinned by ``tests/unit/test_obs_stdlib.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "HistoryError",
    "RunRecord",
    "HistoryStore",
    "config_hash",
    "engine_version",
    "load_records",
]

#: Where the CLI appends history unless ``--history-dir`` says otherwise.
DEFAULT_HISTORY_DIR = Path("benchmarks/out/history")

#: Float fields are rounded to this many decimals before serialization
#: so a record's bytes do not depend on platform float repr quirks.
_FLOAT_DECIMALS = 6


class HistoryError(ReproError):
    """A malformed history record or an unusable history directory."""


def engine_version() -> str:
    """The engine version stamped into every record."""
    import repro

    return repro.__version__


def config_hash(config: dict | None) -> str:
    """sha256 of the canonical-JSON form of a config mapping.

    Key order, whitespace and float repr are pinned, so two configs
    with equal content always hash identically.  ``None`` (no config)
    hashes the empty object.
    """
    payload = json.dumps(
        config or {}, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _round_floats(value):
    if isinstance(value, float):
        return round(value, _FLOAT_DECIMALS)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


@dataclass(frozen=True)
class RunRecord:
    """One provenance-stamped run in the history.

    Attributes
    ----------
    kind:
        What produced the record: ``"schedule"``, ``"sweep"``,
        ``"fuzz"``, ``"chaos"`` …
    workload / arch:
        Graph name and architecture name — together with ``kind`` and
        ``config_hash`` they form the baseline grouping key.
    config_hash:
        sha256 of the canonical config JSON (:func:`config_hash`).
    engine_version:
        ``repro.__version__`` at record time.
    timestamp:
        Seconds since the epoch (from the injected clock).
    duration_seconds:
        Total wall-clock of the run — the value the regression detector
        fits its baseline over.
    phases:
        Wall-clock seconds per optimiser phase
        (``{"startup": ..., "rotate": ..., ...}``).
    counters:
        Key counters snapshot (plain ``name -> int``).
    attrs:
        Free-form extras (schedule lengths, trial counts, seeds …).
    """

    kind: str
    workload: str
    arch: str
    config_hash: str
    engine_version: str
    timestamp: float
    duration_seconds: float
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    def key(self) -> tuple[str, str, str, str]:
        """The baseline grouping key: runs are only comparable within
        one (kind, workload, arch, config_hash) group."""
        return (self.kind, self.workload, self.arch, self.config_hash)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "arch": self.arch,
            "config_hash": self.config_hash,
            "engine_version": self.engine_version,
            "timestamp": _round_floats(self.timestamp),
            "duration_seconds": _round_floats(self.duration_seconds),
            "phases": _round_floats(self.phases),
            "counters": self.counters,
            "attrs": _round_floats(self.attrs),
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, pinned separators):
        byte-stable given equal field values."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        try:
            return cls(
                kind=data["kind"],
                workload=data["workload"],
                arch=data["arch"],
                config_hash=data["config_hash"],
                engine_version=data["engine_version"],
                timestamp=data["timestamp"],
                duration_seconds=data["duration_seconds"],
                phases=dict(data.get("phases", {})),
                counters=dict(data.get("counters", {})),
                attrs=dict(data.get("attrs", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise HistoryError(f"malformed history record: {exc}") from exc


class HistoryStore:
    """Append-only NDJSON store under one directory.

    Parameters
    ----------
    root:
        The history directory (created on first append).
    clock:
        Timestamp source (defaults to ``time.time``); injectable so
        tests can pin record bytes.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_HISTORY_DIR,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.clock = clock

    def _file(self, kind: str) -> Path:
        if not kind or "/" in kind or "\\" in kind or kind.startswith("."):
            raise HistoryError(f"invalid history kind {kind!r}")
        return self.root / f"{kind}.ndjson"

    def record(
        self,
        kind: str,
        *,
        workload: str,
        arch: str,
        config: dict | None = None,
        duration_seconds: float,
        phases: dict | None = None,
        counters: dict | None = None,
        attrs: dict | None = None,
    ) -> RunRecord:
        """Build a provenance-stamped record and append it."""
        rec = RunRecord(
            kind=kind,
            workload=workload,
            arch=arch,
            config_hash=config_hash(config),
            engine_version=engine_version(),
            timestamp=self.clock(),
            duration_seconds=duration_seconds,
            phases=dict(phases or {}),
            counters=dict(counters or {}),
            attrs=dict(attrs or {}),
        )
        self.append(rec)
        return rec

    def append(self, record: RunRecord) -> Path:
        """Append one record to its kind's NDJSON file."""
        target = self._file(record.kind)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
        return target

    def kinds(self) -> list[str]:
        """Record kinds present in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.ndjson"))

    def load(self, kind: str | None = None) -> list[RunRecord]:
        """All records (of one kind, or every kind) in append order."""
        kinds = [kind] if kind is not None else self.kinds()
        out: list[RunRecord] = []
        for k in kinds:
            path = self._file(k)
            if path.is_file():
                out.extend(_read_ndjson(path))
        return out

    def __len__(self) -> int:
        return len(self.load())


def _read_ndjson(path: Path) -> Iterator[RunRecord]:
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HistoryError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        yield RunRecord.from_dict(data)


def load_records(paths: Iterable[str | Path]) -> list[RunRecord]:
    """Load records from explicit NDJSON files and/or history dirs."""
    out: list[RunRecord] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.extend(HistoryStore(p).load())
        elif p.is_file():
            out.extend(_read_ndjson(p))
        else:
            raise HistoryError(f"no such history file or directory: {entry}")
    return out
