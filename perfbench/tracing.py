"""In-memory spans around calls into statesep's modules.

The tracer replaces a function on its module with a wrapper that records
one span per call: name, start, end, parent span, operation id, the
exception class it raised (if any) and an optional work count such as
photon shots.  Wrappers sit at the names callers look up at call time
(``statesep.solvers.qmin_at``, ``statesep.verify.oracle_qmin``), so
nothing in the package changes.  A span's self time is its duration
minus what its child spans cover; the layer is the part of the name
before the first dot.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ERROR, WORK = range(7)


class Tracer:
    """Span recorder; ``op`` is the id stamped on spans started from now on."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str, work) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.op, None, None])

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording a span per call; ``work(args, kwargs)`` gives its work count."""

        def traced(*args, **kwargs):
            rec = self._open(name, work(args, kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, work=None) -> None:
        """Replace ``module.attr`` by its traced wrapper until :meth:`uninstall`."""
        fn = getattr(module, attr)
        # Restore the raw entry, so a classmethod gets its descriptor back.
        self._installed.append((module, attr, vars(module).get(attr, fn)))
        setattr(module, attr, self.wrap(name, fn, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, durations, errors and work."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "errors": defaultdict(int), "work": 0}
        )
        for rec, covered in zip(self.spans, child):
            dur = rec[END] - rec[START]
            row = out[rec[NAME]]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - covered
            row["durations"].append(dur)
            if rec[ERROR]:
                row["errors"][rec[ERROR]] += 1
            if rec[WORK]:
                row["work"] += rec[WORK]
        return dict(out)


def layer_self_times(summary: dict[str, dict]) -> dict[str, float]:
    """Self seconds per layer, the layer being the span name up to its first dot."""
    layers: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return dict(layers)
