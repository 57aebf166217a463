"""Outside-in span recorder.

A Tracer replaces functions and methods of the program with wrappers that
record a span (name, start, end, parent) per call, then puts the originals
back.  Nothing under ``src/`` is edited: the wrappers sit at the calls into
each module.  Spans stay in memory; ``summary()`` turns them into per-name
call counts, total time and self time (a span's duration minus the time its
direct children cover).

Call sites hit about 10^5 times per solve are installed as counters only,
because timing them costs more than the work they do and would distort the
self times of everything above them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Site:
    """One wrap target: ``owner.attr`` recorded under ``name``.

    ``owner`` is a class or a module.  For a module function every loaded
    module of ``package`` that holds the same function object is patched, so
    callers that imported it by name are seen too.  ``timed=False`` records
    a count only.  ``after(tracer, args, result)`` runs after a successful
    call to record counters read from the call (hit rates, work counts).
    """

    name: str
    owner: object
    attr: str
    timed: bool = True
    after: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, package: str = "sparsekit"):
        self.clock = clock
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.window_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        rec = self.spans[idx]
        rec[1] = start
        rec[2] = end

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        idx = self._open(name)
        start = self.clock()
        try:
            yield
        finally:
            self._close(idx, start, self.clock())

    @contextmanager
    def window(self):
        """Mark a traced region; its wall time is what the spans must explain."""
        start = self.clock()
        try:
            yield
        finally:
            self.window_s += self.clock() - start

    def wrap(self, fn: Callable, site: Site) -> Callable:
        name, after, counts = site.name, site.after, self.counts

        if not site.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        clock, open_, close = self.clock, self._open, self._close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = open_(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, start, clock())
            if after is not None:
                after(self, args, result)
            return result

        return timed

    # -- patching ------------------------------------------------------

    def install(self, sites) -> None:
        """Wrap every site; ``uninstall`` restores the originals."""
        try:
            for site in sites:
                self._install(site)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, site: Site) -> None:
        if isinstance(site.owner, type):
            original = site.owner.__dict__[site.attr]
            self._patches.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, self.wrap(original, site))
            return
        original = getattr(site.owner, site.attr)
        wrapper = self.wrap(original, site)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, sites):
        self.install(sites)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def unattributed_s(self) -> float:
        """Window time that no top-level span covers."""
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return self.window_s - top

    def dump(self) -> dict:
        """Everything recorded, for writing out at the end of a run."""
        return {
            "window_s": self.window_s,
            "unattributed_s": self.unattributed_s(),
            "summary": self.summary(),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
