"""Span timelines: a read-only view of the causal journal.

The defense lifecycle is recorded once, by the journal
(:mod:`repro.obs.journal`).  This module reads it back as a tree of
timed intervals so one honeypot session renders as one gantt:
:meth:`SpanRecorder.from_journal` folds each ``X_open`` event and its
``X_close`` child into one span named ``X`` (``session``,
``as_session``, ``intra_session``), turns every other event into an
instantaneous span, and keeps the journal's parent links.

The view is deterministic because the journal is: span ids follow
journal order and times are simulation times.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .journal import Journal

__all__ = ["Span", "SpanRecorder"]

_OPEN, _CLOSE = "_open", "_close"


class Span:
    """One named interval; ``end is None`` while still open.

    Instantaneous occurrences (a port close, a honeypot hit) are spans
    with ``end == start`` — built via :meth:`SpanRecorder.event`.
    """

    __slots__ = ("span_id", "name", "start", "end", "parent_id", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        # Defensive copy: the caller's kwargs dict must not alias the
        # recorded span (shard-safety invariant RPL103).
        self.attrs = dict(attrs)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def is_event(self) -> bool:
        return self.end == self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.end is None else f"{self.end:.4f}"
        return f"Span#{self.span_id}({self.name}, {self.start:.4f}->{end})"


class SpanRecorder:
    """The span forest of one journal (see :meth:`from_journal`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @classmethod
    def from_journal(cls, journal: Journal) -> "SpanRecorder":
        """Fold ``journal`` into spans: an ``X_close`` event whose parent
        is a still-open ``X_open`` closes that interval (its attributes
        join the span's); any other event is an instant span."""
        rec = cls()
        by_event: Dict[int, Span] = {}
        for ev in journal.events:
            parent = None if ev.parent_id is None else by_event.get(ev.parent_id)
            name = ev.name
            if (
                name.endswith(_CLOSE)
                and parent is not None
                and parent.end is None
                and parent.name == name[: -len(_CLOSE)]
            ):
                span = rec.end(parent, ev.time, **ev.attrs)
            elif name.endswith(_OPEN):
                span = rec.start(name[: -len(_OPEN)], ev.time, parent, **ev.attrs)
            else:
                span = rec.event(name, ev.time, parent, **ev.attrs)
            by_event[ev.event_id] = span
        return rec

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def start(
        self, name: str, at: float, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Open a span at ``at``; close it with :meth:`end`."""
        span = Span(
            len(self.spans),
            name,
            at,
            parent.span_id if parent is not None else None,
            attrs,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, at: float, **attrs: Any) -> Span:
        """Close a span (idempotent: a second end is ignored)."""
        if span.end is None:
            span.end = at
            span.attrs.update(attrs)
        return span

    def event(
        self, name: str, at: float, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """An instantaneous span (end == start)."""
        span = self.start(name, at, parent, **attrs)
        span.end = at
        return span

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        sid = span.span_id
        return [s for s in self.spans if s.parent_id == sid]

    def find(
        self,
        name: Optional[str] = None,
        predicate: Optional[Callable[[Span], bool]] = None,
    ) -> List[Span]:
        out: Iterable[Span] = self.spans
        if name is not None:
            out = (s for s in out if s.name == name)
        if predicate is not None:
            out = (s for s in out if predicate(s))
        return list(out)

    def subtree(self, root: Span) -> List[Span]:
        """The root and every descendant, in journal (= time) order."""
        keep = {root.span_id}
        out = [root]
        for s in self.spans:
            if s.parent_id in keep:
                keep.add(s.span_id)
                out.append(s)
        return out

    def complete_trees(self, leaf_name: str) -> List[Span]:
        """Roots whose subtree contains a closed span named ``leaf_name``
        and whose every span is closed — e.g. a honeypot session that
        progressed all the way to a port close and was torn down."""
        out = []
        for root in self.roots():
            sub = self.subtree(root)
            if any(s.end is not None for s in sub if s.name == leaf_name) and all(
                s.end is not None for s in sub
            ):
                out.append(root)
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_timeline(
        self, roots: Optional[Sequence[Span]] = None, width: int = 40
    ) -> str:
        """Text gantt of the given trees (all roots when ``roots`` is None)."""
        lines: List[str] = []
        for r in self.roots() if roots is None else roots:
            sub = self.subtree(r)
            t0 = min(s.start for s in sub)
            t1 = max((s.end if s.end is not None else s.start) for s in sub)
            extent = max(t1 - t0, 1e-12)
            depth = {r.span_id: 0}
            for s in sub:
                if s.parent_id in depth and s.span_id not in depth:
                    depth[s.span_id] = depth[s.parent_id] + 1
            for s in sub:
                d = depth.get(s.span_id, 0)
                attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
                left = int(width * (s.start - t0) / extent)
                if s.end is None:
                    bar = " " * left + "#..."
                    times = f"{s.start:9.3f} ->   (open)"
                elif s.is_event:
                    bar = " " * min(left, width - 1) + "*"
                    times = f"{s.start:9.3f}"
                else:
                    span_w = max(1, int(width * (s.end - s.start) / extent))
                    bar = " " * left + "#" * min(span_w, width - left)
                    times = f"{s.start:9.3f} -> {s.end:9.3f}"
                label = f"{'  ' * d}{s.name}" + (f" [{attrs}]" if attrs else "")
                lines.append(f"{label:<44s} {times:>24s} |{bar:<{width}s}|")
            lines.append("")
        return "\n".join(lines).rstrip("\n")

    def __len__(self) -> int:
        return len(self.spans)
