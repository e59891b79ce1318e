"""In-memory spans around calls into the library's layers.

The traced run of the benchmark wraps public functions *by the name the
calling module binds them under* (``repro.oscillator.bank`` binds
``effective_saturation_current``, ``repro.serve.server`` binds
``canonical_spec``, ...), so a span measures exactly the calls a real
request makes, without any instrumentation inside ``src/``.

A span is ``(id, parent, name, start, end)``.  The parent is the span
that was open in the same context (``contextvars``, so a span opened in
an asyncio task or an ``asyncio.to_thread`` worker nests under the span
that scheduled it).  Spans stay in memory; :func:`write_spans` writes
them out when the run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float]


class Tracer:
    """Records spans and counts while :attr:`enabled`; inert otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, parent, name, start, end))

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", Sequence[Any], Any], None]] = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``after`` may count."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # patching the names callers bind
    # ------------------------------------------------------------------ #

    def install(self, points: Sequence[Tuple[str, str, str, Any]]) -> List[str]:
        """Wrap every ``(module, attribute path, span name, after)`` point.

        Returns the points whose name no longer exists, so a refactor
        that moves a function shows up as a missing layer, not a crash.
        """
        missing = []
        for module_name, path, span_name, after in points:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(self.wrap(raw.__func__, span_name, after))
            else:
                replacement = self.wrap(raw, span_name, after)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        return missing

    def install_json_loads(self, module_name: str, span_name: str) -> None:
        """Trace ``json.loads`` as seen by one module (its ``json`` name)."""
        module = importlib.import_module(module_name)
        original = module.json
        shim = types.ModuleType("json")
        shim.__dict__.update(original.__dict__)
        shim.loads = self.wrap(original.loads, span_name)
        self._patches.append((module, "json", original))
        module.json = shim

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # reading spans back
    # ------------------------------------------------------------------ #

    def total(self, *names: str) -> float:
        """Summed duration (s) of every span with one of ``names``."""
        wanted = set(names)
        return sum(end - start for _, _, name, start, end in self.spans if name in wanted)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[2] == name)

    def self_time(self, name: str) -> float:
        """Summed self time (s) of every span called ``name``."""
        children: Dict[int, List[Span]] = collections.defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        total = 0.0
        for span in self.spans:
            if span[2] != name:
                continue
            covered = 0.0
            reach = span[3]
            for _, _, _, start, end in sorted(children[span[0]], key=lambda s: s[3]):
                start, end = max(start, reach), min(end, span[4])
                if end > start:
                    covered += end - start
                    reach = end
            total += (span[4] - span[3]) - covered
        return total


def write_spans(path: str, recorded: Mapping[str, Tuple[List[Span], Mapping[str, float]]]) -> None:
    """Write each phase's spans (one JSON object a line), then its counts."""
    with open(path, "w", encoding="utf-8") as handle:
        for phase, (spans, counts) in recorded.items():
            for span_id, parent, name, start, end in spans:
                record = {"phase": phase, "id": span_id, "parent": parent,
                          "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"phase": phase, "counts": dict(counts)}) + "\n")
