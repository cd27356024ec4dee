"""Simulator self-profiling: events/sec, heap high-water, wall time.

The full-scale paper scenarios push tens of millions of events; before
any scaling work can be trusted we need to know where simulated time
goes in wall-clock terms.  An :class:`EngineProfiler` attaches to a
:class:`~repro.sim.engine.Simulator`; ``Simulator.run`` then arms its
profiler observers at entry (a simulator without a profiler skips them
with one test per event).

Tracked per simulator, accumulated across ``run()`` calls:

* events processed and wall-clock seconds -> events/sec;
* event-heap high-water mark (live pending events; lazily cancelled
  entries still occupying the scheduler are excluded);
* simulated seconds covered -> wall-time per simulated second.

Dimensional attribution (:meth:`EngineProfiler.enable_dimensions`) adds
an opt-in second level: per dispatched event the engine brackets the
callback with a wall-clock timer and charges ``(kind, module, site)``,
where *kind* is the callback's qualified name, *module* its defining
module (``repro.`` prefix trimmed), and *site* the topology location
resolved from the callback's bound instance — the node address, mapped
through an optional ``site_of`` partition function (e.g. per-AS subtree
labels from :func:`repro.topology.tree.subtree_partition`).  The
bracket (:meth:`EngineProfiler.attributor`) only ever *reads* engine
state, so the causal journal is byte-identical with attribution on or
off.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EngineProfiler"]

# Dimension key: (callback qualname, defining module, topology site).
DimKey = Tuple[str, str, str]


def _trim_module(module: str) -> str:
    """``repro.sim.link`` -> ``sim.link`` (keeps tables readable)."""
    return module[6:] if module.startswith("repro.") else module


class EngineProfiler:
    """Accumulates engine self-profile samples across runs."""

    __slots__ = (
        "runs",
        "events",
        "wall_time",
        "sim_time",
        "heap_hwm",
        "dims",
        "site_of",
    )

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.wall_time = 0.0
        self.sim_time = 0.0
        self.heap_hwm = 0
        # Dimensional attribution state; None until enable_dimensions().
        # dims maps (kind, module, site) -> [event count, wall seconds].
        self.dims: Optional[Dict[DimKey, List[float]]] = None
        self.site_of: Optional[Callable[[int], Optional[str]]] = None

    # ------------------------------------------------------------------
    def attach(self, sim: Any) -> "EngineProfiler":
        """Have ``sim.run()`` report to this profiler."""
        sim.profiler = self
        live = sim.pending(live=True)
        if live > self.heap_hwm:
            self.heap_hwm = live
        return self

    def enable_dimensions(
        self, site_of: Optional[Callable[[int], Optional[str]]] = None
    ) -> "EngineProfiler":
        """Turn on per-``(kind, module, site)`` attribution.

        ``site_of`` maps a node address to a partition label (unknown
        addresses fall back to ``n<addr>``).  Existing accumulated
        dimensions are kept — a shared serial profiler accumulates
        across scenario runs exactly like the scalar counters do.
        """
        if self.dims is None:
            self.dims = {}
        if site_of is not None:
            self.site_of = site_of
        return self

    def attributor(self) -> Callable[[Callable[..., Any], tuple], None]:
        """A per-event dispatcher: ``dispatch(fn, args)`` runs ``fn(*args)``
        under a wall-clock timer and charges one event and the elapsed
        seconds to its ``(kind, module, site)`` cell (nothing if it
        raises).  ``Simulator.run`` takes one per run with dimensions on.
        """
        # reprolint: ignore[RPL002] -- self-profiling measures real wall
        # time for repro.obs; it never feeds back into simulated state
        from time import perf_counter

        dims = self.dims
        assert dims is not None, "enable_dimensions() first"
        resolve = self.dimension_key
        # Per-run memo of resolved keys.  Bound methods are fresh objects
        # per schedule() call, so it is keyed by (underlying function,
        # bound instance) — both stable and alive while their events are
        # pending (never ``id()``: ids are recycled by the allocator).
        memo: Dict[Any, DimKey] = {}

        def dispatch(fn: Callable[..., Any], args: tuple) -> None:
            t0 = perf_counter()  # reprolint: ignore[RPL002] -- profiler
            fn(*args)
            dt = perf_counter() - t0  # reprolint: ignore[RPL002]
            ckey = (getattr(fn, "__func__", fn), getattr(fn, "__self__", None))
            try:
                key = memo.get(ckey)
            except TypeError:  # unhashable instance: no memo
                key = resolve(*ckey)
            else:
                if key is None:
                    key = memo[ckey] = resolve(*ckey)
            cell = dims.get(key)
            if cell is None:
                dims[key] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt

        return dispatch

    def record_run(self, events: int, wall: float, sim_delta: float) -> None:
        """Called by the engine at the end of each profiled ``run()``."""
        self.runs += 1
        self.events += events
        self.wall_time += wall
        self.sim_time += sim_delta

    def note_heap(self, depth: int) -> None:
        if depth > self.heap_hwm:
            self.heap_hwm = depth

    # ------------------------------------------------------------------
    # Dimension resolution (miss path of the attributor's memo)
    # ------------------------------------------------------------------
    def dimension_key(self, func: Any, inst: Any) -> DimKey:
        """``(kind, module, site)`` of a callback's function and bound
        instance.  The site is the instance's ``addr``, else that of a
        node it references (``dst`` for channels, then ``host`` /
        ``router`` / ``node`` / ``owner``), mapped through ``site_of``
        when set; plain functions and unplaced objects land on ``-`` /
        the class name."""
        kind = getattr(func, "__qualname__", repr(func))
        module = _trim_module(getattr(func, "__module__", None) or "?")
        if inst is None:
            return (kind, module, "-")
        addr: Optional[int] = getattr(inst, "addr", None)
        if addr is None:
            for ref in ("dst", "host", "router", "node", "owner"):
                holder = getattr(inst, ref, None)
                if holder is not None:
                    addr = getattr(holder, "addr", None)
                    if addr is not None:
                        break
        if addr is None:
            return (kind, module, type(inst).__name__)
        label = self.site_of(addr) if self.site_of is not None else None
        return (kind, module, label if label is not None else f"n{addr}")

    # ------------------------------------------------------------------
    # Merging (pooled runs: repro.parallel.merge.absorb_artifact)
    # ------------------------------------------------------------------
    def dimension_rows(self) -> List[Dict[str, Any]]:
        """The accumulated dimensions as deterministic sorted rows."""
        if not self.dims:
            return []
        return [
            {
                "kind": kind,
                "module": module,
                "site": site,
                "events": int(cell[0]),
                "wall_s": cell[1],
            }
            for (kind, module, site), cell in sorted(self.dims.items())
        ]

    def merge_dimension_rows(self, rows: List[Dict[str, Any]]) -> None:
        """Fold another profiler's :meth:`dimension_rows` into ours."""
        if self.dims is None:
            self.dims = {}
        dims = self.dims
        for row in rows:
            key = (str(row["kind"]), str(row["module"]), str(row["site"]))
            cell = dims.get(key)
            if cell is None:
                dims[key] = [int(row["events"]), float(row["wall_s"])]
            else:
                cell[0] += int(row["events"])
                cell[1] += float(row["wall_s"])

    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def wall_per_sim_sec(self) -> float:
        return self.wall_time / self.sim_time if self.sim_time > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "runs": self.runs,
            "events_processed": self.events,
            "wall_time_s": self.wall_time,
            "sim_time_s": self.sim_time,
            "events_per_sec": self.events_per_sec,
            "wall_per_sim_sec": self.wall_per_sim_sec,
            "heap_hwm_events": self.heap_hwm,
        }
        if self.dims is not None:
            out["dimensions"] = self.dimension_rows()
        return out

    def render_dimensions(self, top: int = 15) -> str:
        """Human-readable attribution table (top rows by wall time)."""
        rows = self.dimension_rows()
        if not rows:
            return ""
        rows.sort(key=lambda r: (-r["wall_s"], r["kind"], r["site"]))
        total = sum(r["wall_s"] for r in rows) or 1.0
        lines = [f"per-dimension attribution (top {min(top, len(rows))} of "
                 f"{len(rows)} by wall time):"]
        lines.append("    wall_s   %wall    events  kind @ site [module]")
        for row in rows[:top]:
            lines.append(
                f"  {row['wall_s']:8.4f}  {100.0 * row['wall_s'] / total:5.1f}%"
                f"  {row['events']:8d}  {row['kind']} @ {row['site']}"
                f" [{row['module']}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineProfiler(events={self.events}, "
            f"events/s={self.events_per_sec:.0f}, hwm={self.heap_hwm})"
        )
