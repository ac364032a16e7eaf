"""Outside-in span tracer.

Spans are recorded by replacing module-level bindings (and class methods)
of the program with wrappers, so nothing inside ``flexloop`` changes. A
binding is only seen by callers that look it up through the patched name:
``flexloop.plant.solve_power_flow`` and ``flexloop.sensitivity.
solve_power_flow`` are separate bindings of one function, and each call
site goes through exactly one of them, so no call is counted twice.

Spans carry a name, start, end and parent and are kept in memory; a span's
self time is its duration minus the durations of its direct children.
Counters are read from the wrapped call's return value. A binding that no
longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.observed: list[Any] = []
        self.absent: list[str] = []  # bindings that no longer exist
        self.wrapped_names: set[str] = set()  # span names with a live binding
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span ``name``.

        ``observe`` maps the call's return value to what the span keeps;
        a call that raises keeps ``None``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(idx, observe(result) if observe and result is not None else None)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.wrapped_names.add(name)

    def remove(self) -> None:
        """Restore every wrapped binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.observed.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, observed: Any) -> None:
        self.ends[idx] = time.perf_counter()
        self.observed[idx] = observed
        self._stack.pop()

    # -- queries -------------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def ancestors(self) -> list[frozenset[str]]:
        """Names of every enclosing span, per span (parents precede children)."""
        out: list[frozenset[str]] = []
        for parent in self.parents:
            out.append(out[parent] | {self.names[parent]} if parent >= 0 else frozenset())
        return out
