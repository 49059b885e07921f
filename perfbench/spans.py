"""In-memory spans for the traced run, written out once at the end."""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median


class Tracer:
    """Spans as (name, parent span, trace, start ns, end ns) rows.

    ``add`` returns the new span's id, its row index, so a child can name its
    parent. Spans of one job share a trace id; -1 means none.
    """

    FIELDS = ("name", "parent", "trace", "start_ns", "end_ns")

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows: list[tuple[int, int, int, int, int]] = []

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = -1, trace: int = -1) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self.rows.append((name_id, parent, trace, start_ns, end_ns))
        return len(self.rows) - 1

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span named ``name``."""
        name_id = self._name_ids.get(name)
        return [(end - start) * 1e-9 for nid, _, _, start, end in self.rows if nid == name_id]

    def mean_us(self, name: str) -> float:
        d = self.durations(name)
        return sum(d) / len(d) * 1e6 if d else 0.0

    def median_s(self, name: str) -> float:
        d = self.durations(name)
        return median(d) if d else 0.0

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "names": self._names, "fields": list(self.FIELDS), "spans": self.rows}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
