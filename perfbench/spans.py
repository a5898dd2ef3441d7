"""In-memory spans recorded around the benchmark's calls into the package.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (perf_counter
seconds), ``parent`` (the id of the enclosing span, or None), ``round``
(the measured round it belongs to) and any attributes the caller adds.
Spans stay in memory until ``write`` dumps them as one JSON document.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


def untraced(name, **attrs):
    """Stand-in for ``Tracer.span`` in rounds measured without tracing."""
    return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "round": self.round, **attrs, "start": perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def select(self, names, **attrs) -> list[dict]:
        """Closed spans named ``names`` (a name or a tuple of names) whose
        attributes include ``attrs``."""
        names = (names,) if isinstance(names, str) else tuple(names)
        return [s for s in self.spans if s["name"] in names
                and s["end"] is not None
                and all(s.get(k) == v for k, v in attrs.items())]

    def median_span(self, names, **attrs) -> float:
        """Median duration of one span with this name and these attributes."""
        spans = self.select(names, **attrs)
        if not spans:
            return 0.0
        return statistics.median(s["end"] - s["start"] for s in spans)

    def median_round_total(self, names, **attrs) -> float:
        """Median over traced rounds of the summed durations of the matching
        spans in each round: the layer's busy time per round."""
        totals: dict = {}
        for s in self.select(names, **attrs):
            totals[s["round"]] = totals.get(s["round"], 0.0) + s["end"] - s["start"]
        if not totals:
            return 0.0
        return statistics.median(totals.values())

    def write(self, path: Path, **extra) -> None:
        """Dump the spans, and any ``extra`` top-level entries, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, **extra}, indent=0)
                        + "\n")
