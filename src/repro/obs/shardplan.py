"""Shard-cut advisor: what would a partition cost? (``repro.shardplan/1``)

This module evaluates candidate topology cuts for conservative
parallel DES *offline*: it replays a finished causal journal against a partition and
reports the three numbers a conservative-DES design lives or dies by:

* **load balance** — events and causal work per shard (the slowest
  shard bounds the speedup);
* **cross-shard traffic** — causal ``parent -> child`` edges whose
  endpoints land on different shards (each one is a message the
  runtime must ship and synchronize on);
* **lookahead** — the minimum simulated-time delta across any
  cross-shard edge: a conservative simulator can safely advance a
  shard by exactly this window, so a tiny lookahead means lockstep and
  no speedup regardless of balance.

The deliberate design choice is to *profile the journal, not the run*:
shards are derived purely from each event's recorded attributes (AS
number, router/honeypot address, or any attribute via ``attr:<name>``)
with unattributed events inheriting their causal parent's shard.
Nothing about the partition leaks into the journal itself, so the same
byte-identical journal can be evaluated against any number of candidate
cuts after the fact — and the determinism witness stays untouched.

The advisor is analysis only.  The forked sharded engine it once fed
was retired on measurement (slower than serial on every box that ran
it, and unable to run a defended cell), so no runtime consumes a plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .journal import Journal, build_tree

__all__ = [
    "LOOKAHEAD_UNBOUNDED",
    "SHARDPLAN_SCHEMA",
    "ShardPlanError",
    "assign_shards",
    "render_shardplan",
    "shard_plan",
    "validate_shardplan",
]

SHARDPLAN_SCHEMA = "repro.shardplan/1"

# Sentinel for the degenerate no-cross-shard-edge case: with zero cross
# edges the safe-advance window is unbounded (a single shard never
# waits on a peer).  Kept as an explicit JSON-safe marker instead of
# None so downstream consumers can't mistake "unconstrained" for
# "unknown".
LOOKAHEAD_UNBOUNDED = "unbounded"

# Default shard for events with no locating attribute anywhere up their
# causal chain (run brackets, pool bookkeeping, ...).
CORE_SHARD = "core"

# Attribute probe order per partitioning mode.  ``-1`` values are the
# in-band "none" marker some emitters use and never name a real AS.
_MODE_ATTRS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "as": (("asn", "as"), ("from_as", "as")),
    "honeypot": (("honeypot", "hp"), ("server", "hp")),
    "router": (("router", "r"), ("access_router", "r")),
}


class ShardPlanError(ValueError):
    """Unknown partitioning mode or malformed shardplan artifact."""


def _shard_key(attrs: Dict[str, Any], by: str) -> Optional[str]:
    """The shard label an event's own attributes pin it to (or None)."""
    if by.startswith("attr:"):
        name = by[5:]
        if not name:
            raise ShardPlanError("attr: partition needs an attribute name")
        if name in attrs:
            return f"{name}={attrs[name]}"
        return None
    probes = _MODE_ATTRS.get(by)
    if probes is None:
        raise ShardPlanError(
            f"unknown partition {by!r} (expected 'as', 'honeypot', "
            "'router', or 'attr:<name>')"
        )
    for attr, prefix in probes:
        value = attrs.get(attr)
        if value is None or value == -1:
            continue
        return f"{prefix}{value}"
    return None


def assign_shards(
    journal: Journal, by: str = "as", default: str = CORE_SHARD
) -> List[str]:
    """Per-event shard labels (id order), inheriting down causal links.

    An event with no locating attribute runs wherever its causal parent
    ran — that is exactly what a sharded runtime would do, since the
    parent's handler schedules the child.  Roots with no attribute land
    on ``default``.
    """
    build_tree(journal)  # validates parent links before we walk them
    events = journal.events
    shards: List[str] = []
    for event in events:
        shard = _shard_key(event.attrs, by)
        if shard is None:
            parent = event.parent_id
            shard = shards[parent] if parent is not None else default
        shards.append(shard)
    return shards


def shard_plan(journal: Journal, by: str = "as") -> Dict[str, Any]:
    """Evaluate one candidate partition over a journal.

    Returns the ``repro.shardplan/1`` artifact: per-shard load (events
    and causal work), cross-shard edge counts per directed shard pair,
    and the conservative lookahead (minimum cross-shard edge delta,
    with the minimum *positive* delta alongside, since a zero-delta
    cross edge forces lockstep).
    """
    shards = assign_shards(journal, by=by)
    events = journal.events
    load: Dict[str, Dict[str, Any]] = {}
    for event, shard in zip(events, shards):
        row = load.setdefault(shard, {"events": 0, "work": 0.0})
        row["events"] += 1
        parent = event.parent_id
        if parent is not None:
            row["work"] += max(0.0, event.time - events[parent].time)

    cross: Dict[Tuple[str, str], int] = {}
    lookahead: Optional[float] = None
    lookahead_positive: Optional[float] = None
    cross_edges = 0
    local_edges = 0
    for event, shard in zip(events, shards):
        parent = event.parent_id
        if parent is None:
            continue
        src = shards[parent]
        if src == shard:
            local_edges += 1
            continue
        cross_edges += 1
        cross[(src, shard)] = cross.get((src, shard), 0) + 1
        delta = max(0.0, event.time - events[parent].time)
        if lookahead is None or delta < lookahead:
            lookahead = delta
        if delta > 0.0 and (lookahead_positive is None or delta < lookahead_positive):
            lookahead_positive = delta

    works = [float(row["work"]) for row in load.values()]
    counts = [int(row["events"]) for row in load.values()]
    total_work = sum(works)
    max_work = max(works, default=0.0)
    mean_work = total_work / len(works) if works else 0.0
    return {
        "schema": SHARDPLAN_SCHEMA,
        "by": by,
        "events": len(events),
        "shards": {k: load[k] for k in sorted(load)},
        "n_shards": len(load),
        "local_edges": local_edges,
        "cross_edges": cross_edges,
        "cross_pairs": {
            f"{src}->{dst}": count
            for (src, dst), count in sorted(cross.items())
        },
        "cross_fraction": (
            cross_edges / (cross_edges + local_edges)
            if cross_edges + local_edges
            else 0.0
        ),
        "lookahead": lookahead,
        "lookahead_positive": lookahead_positive,
        "work_total": total_work,
        "work_max_shard": max_work,
        "work_imbalance": (max_work / mean_work) if mean_work > 0 else 1.0,
        # Brent-style bound for this cut: total work over the slowest
        # shard — ignores synchronization, so it is an upper bound.
        "balance_speedup_bound": (
            total_work / max_work if max_work > 0 else 1.0
        ),
        "event_counts": sorted(counts, reverse=True),
    }


def validate_shardplan(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Structurally validate a ``repro.shardplan/1`` artifact.

    Checks the schema tag, required fields, and the internal accounting
    identities (shard loads sum to the journal totals; edge counts
    partition into local + cross).  Returns a small summary dict, so CI
    can assert on it; raises :class:`ShardPlanError` on any violation.
    """
    if doc.get("schema") != SHARDPLAN_SCHEMA:
        raise ShardPlanError(
            f"schema {doc.get('schema')!r} != {SHARDPLAN_SCHEMA!r}"
        )
    required = (
        "by",
        "events",
        "shards",
        "n_shards",
        "local_edges",
        "cross_edges",
        "cross_pairs",
        "lookahead",
        "work_total",
        "work_imbalance",
        "balance_speedup_bound",
    )
    missing = [key for key in required if key not in doc]
    if missing:
        raise ShardPlanError(f"missing fields: {', '.join(missing)}")
    shards = doc["shards"]
    if not isinstance(shards, dict):
        raise ShardPlanError("'shards' must be a mapping")
    n_events = sum(int(row["events"]) for row in shards.values())
    if n_events != int(doc["events"]):
        raise ShardPlanError(
            f"shard event counts sum to {n_events}, journal has "
            f"{doc['events']}"
        )
    if len(shards) != int(doc["n_shards"]):
        raise ShardPlanError("n_shards does not match the shards table")
    cross_sum = sum(int(v) for v in doc["cross_pairs"].values())
    if cross_sum != int(doc["cross_edges"]):
        raise ShardPlanError(
            f"cross_pairs sum to {cross_sum}, cross_edges says "
            f"{doc['cross_edges']}"
        )
    lookahead = doc["lookahead"]
    if cross_sum == 0 and lookahead is None:
        # Degenerate cut with no cross-shard edges: the safe-advance
        # window is unbounded, not unknown — clamp to the explicit
        # sentinel so CI assertions and the engine's serial fallback
        # see an unambiguous value.
        lookahead = LOOKAHEAD_UNBOUNDED
    return {
        "shards": len(shards),
        "events": n_events,
        "cross_edges": cross_sum,
        "lookahead": lookahead,
    }


def render_shardplan(doc: Dict[str, Any], top: int = 10) -> str:
    """Human-readable shard plan (what ``repro shardplan`` prints)."""
    lines = [
        f"shard plan (by={doc['by']}) over {doc['events']} events, "
        f"{doc['n_shards']} shard(s):",
        f"  causal work total          {doc['work_total']:.3f} s",
        f"  slowest shard work         {doc['work_max_shard']:.3f} s "
        f"(imbalance {doc['work_imbalance']:.2f}x)",
        f"  balance speedup bound      {doc['balance_speedup_bound']:.2f}x",
        f"  cross-shard edges          {doc['cross_edges']} of "
        f"{doc['cross_edges'] + doc['local_edges']} "
        f"({100.0 * doc['cross_fraction']:.1f}%)",
    ]
    if doc["lookahead"] is None:
        lines.append("  lookahead                  n/a (no cross-shard edges)")
    else:
        lines.append(
            f"  lookahead (min cross dt)   {doc['lookahead']:.6f} s"
        )
        if doc.get("lookahead_positive") is not None:
            lines.append(
                f"  lookahead (min positive)   "
                f"{doc['lookahead_positive']:.6f} s"
            )
    shard_rows = sorted(
        doc["shards"].items(), key=lambda kv: (-float(kv[1]["work"]), kv[0])
    )
    lines.append(f"  per-shard load (top {min(top, len(shard_rows))}):")
    for name, row in shard_rows[:top]:
        lines.append(
            f"    {name:<16} {row['events']:8d} events  "
            f"{row['work']:10.3f} s work"
        )
    if len(shard_rows) > top:
        lines.append(f"    ... ({len(shard_rows) - top} more shards)")
    pair_rows = sorted(
        doc["cross_pairs"].items(), key=lambda kv: (-int(kv[1]), kv[0])
    )
    if pair_rows:
        lines.append(f"  busiest cross-shard pairs (top {min(top, len(pair_rows))}):")
        for pair, count in pair_rows[:top]:
            lines.append(f"    {pair:<24} {count:8d} edges")
    return "\n".join(lines)
