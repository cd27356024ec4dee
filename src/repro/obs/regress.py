"""Bench regression tracker: tolerance-banded baseline comparison.

The benchmarks already leave machine-readable artifacts
(``benchmarks/out/summary.json``: one entry per bench with wall time
and the headline metrics registered via ``report.metric``), but the
trajectory was invisible — nothing ever *compared* two runs.  This
module closes the loop:

* a **baseline** is committed at ``benchmarks/baseline.json``: per
  bench, per metric, the expected value plus an optional tolerance
  band (``rel_tol`` / ``abs_tol``; a bare number means "use the
  file's ``default_rel_tol``");
* :func:`compare_to_baseline` checks a fresh summary against it and
  classifies every metric as ``ok`` / ``fail`` / ``new`` /
  ``not run`` — only ``fail`` gates.  A new metric is reported but
  tolerated, so adding a bench never breaks CI; a baseline bench absent
  from the summary is ``not run`` (benches run in separate jobs); but a
  gated metric that vanishes from a bench that *did* run fails, so a
  gate cannot pass by going silent.  A bench is retired by deleting
  its entry from the baseline;
* :func:`write_trajectory_point` appends a ``BENCH_<n>.json``
  trajectory point (next free index in the output directory), giving
  the run-over-run history a durable, diffable form;
* ``repro regress`` (the CLI wrapper) exits 0/1 on the report — the
  CI gate.

Wall-time fields are **never** gated: they are machine-dependent by
nature.  Only the deterministic headline metrics are compared, so a
regression means the *simulation output* moved, not the weather of
the runner.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "DEFAULT_REL_TOL",
    "REGRESS_SCHEMA",
    "MetricCheck",
    "RegressReport",
    "baseline_from_summary",
    "compare_to_baseline",
    "load_baseline",
    "load_summary",
    "next_trajectory_index",
    "write_trajectory_point",
]

REGRESS_SCHEMA = "repro.regress/1"
DEFAULT_REL_TOL = 0.1

_TRAJECTORY_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class MetricCheck:
    """One compared metric and its verdict."""

    bench: str
    metric: str
    status: str  # "ok" | "fail" | "new" | "not run"
    value: Optional[Any] = None
    baseline: Optional[Any] = None
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "status": self.status,
            "value": self.value,
            "baseline": self.baseline,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
        }

    def render(self) -> str:
        band = ""
        if self.abs_tol is not None:
            band = f" (abs_tol={self.abs_tol:g})"
        elif self.rel_tol is not None:
            band = f" (rel_tol={self.rel_tol:g})"
        return (
            f"[{self.status.upper():7s}] {self.bench}/{self.metric}: "
            f"{self.value!r} vs baseline {self.baseline!r}{band}"
        )


@dataclass
class RegressReport:
    """Every metric's verdict; ``ok`` gates CI (exit 0/1)."""

    checks: List[MetricCheck] = field(default_factory=list)

    @property
    def failures(self) -> List[MetricCheck]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": REGRESS_SCHEMA,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        counts: Dict[str, int] = {}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
        lines.append(f"regress: {summary or 'no metrics compared'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_summary(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load ``benchmarks/out/summary.json`` (bench -> entry)."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{os.fspath(path)}: summary must be a JSON object")
    return doc


def load_baseline(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load the committed baseline; validates the schema marker."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != REGRESS_SCHEMA:
        raise ValueError(
            f"{os.fspath(path)}: unsupported baseline schema {schema!r} "
            f"(expected {REGRESS_SCHEMA!r})"
        )
    return doc


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _spec_of(raw: Any, default_rel_tol: float) -> Dict[str, Any]:
    """Normalize a baseline metric entry: bare value or dict form."""
    if isinstance(raw, dict):
        spec = dict(raw)
    else:
        spec = {"value": raw}
    if "rel_tol" not in spec and "abs_tol" not in spec:
        spec["rel_tol"] = default_rel_tol
    return spec


def _within(value: Any, spec: Dict[str, Any]) -> bool:
    base = spec.get("value")
    if isinstance(value, bool) or isinstance(base, bool):
        return value == base
    if not isinstance(value, (int, float)) or not isinstance(base, (int, float)):
        return value == base
    delta = abs(float(value) - float(base))
    abs_tol = spec.get("abs_tol")
    if abs_tol is not None and delta <= float(abs_tol):
        return True
    rel_tol = spec.get("rel_tol")
    if rel_tol is not None:
        scale = max(abs(float(base)), 1e-12)
        if delta <= float(rel_tol) * scale:
            return True
    return abs_tol is None and rel_tol is None and delta == 0.0


def compare_to_baseline(
    summary: Dict[str, Any], baseline: Dict[str, Any]
) -> RegressReport:
    """Check a fresh bench summary against the committed baseline.

    Every baseline metric of a bench present in the summary is gated:
    out of band, or absent from the bench's metrics, is ``fail``.
    Baseline benches absent from the summary are ``not run`` and
    metrics absent from the baseline are ``new``; neither gates.
    """
    default_rel_tol = float(baseline.get("default_rel_tol", DEFAULT_REL_TOL))
    benches: Dict[str, Any] = baseline.get("benches", {})
    report = RegressReport()

    for bench in sorted(benches):
        base_metrics: Dict[str, Any] = benches[bench].get("metrics", {})
        entry = summary.get(bench)
        ran = isinstance(entry, dict)
        current: Dict[str, Any] = entry.get("metrics", {}) if ran else {}
        for metric in sorted(base_metrics):
            spec = _spec_of(base_metrics[metric], default_rel_tol)
            if metric not in current:
                report.checks.append(
                    MetricCheck(
                        bench,
                        metric,
                        "fail" if ran else "not run",
                        baseline=spec.get("value"),
                    )
                )
                continue
            value = current[metric]
            status = "ok" if _within(value, spec) else "fail"
            report.checks.append(
                MetricCheck(
                    bench,
                    metric,
                    status,
                    value=value,
                    baseline=spec.get("value"),
                    rel_tol=spec.get("rel_tol"),
                    abs_tol=spec.get("abs_tol"),
                )
            )
        for metric in sorted(current):
            if metric not in base_metrics:
                report.checks.append(
                    MetricCheck(bench, metric, "new", value=current[metric])
                )

    for bench in sorted(summary):
        if bench in benches:
            continue
        entry = summary[bench]
        metrics = entry.get("metrics", {}) if isinstance(entry, dict) else {}
        for metric in sorted(metrics):
            report.checks.append(
                MetricCheck(bench, metric, "new", value=metrics[metric])
            )
    return report


def baseline_from_summary(
    summary: Dict[str, Any],
    existing: Optional[Dict[str, Any]] = None,
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, Any]:
    """A fresh baseline document from a bench summary.

    Per-metric tolerance overrides of an ``existing`` baseline are
    preserved — ``--update-baseline`` refreshes values, not bands.
    """
    if existing is not None:
        default_rel_tol = float(
            existing.get("default_rel_tol", default_rel_tol)
        )
    old_benches: Dict[str, Any] = (existing or {}).get("benches", {})
    benches: Dict[str, Any] = {}
    for bench in sorted(summary):
        entry = summary[bench]
        metrics = entry.get("metrics", {}) if isinstance(entry, dict) else {}
        if not metrics:
            continue
        old_metrics: Dict[str, Any] = old_benches.get(bench, {}).get(
            "metrics", {}
        )
        out: Dict[str, Any] = {}
        for metric in sorted(metrics):
            spec: Dict[str, Any] = {"value": metrics[metric]}
            old = old_metrics.get(metric)
            if isinstance(old, dict):
                for band in ("rel_tol", "abs_tol"):
                    if band in old:
                        spec[band] = old[band]
            out[metric] = spec
        benches[bench] = {"metrics": out}
    return {
        "schema": REGRESS_SCHEMA,
        "default_rel_tol": default_rel_tol,
        "benches": benches,
    }


# ----------------------------------------------------------------------
# Trajectory points
# ----------------------------------------------------------------------
def next_trajectory_index(out_dir: Union[str, os.PathLike]) -> int:
    """The next free ``BENCH_<n>`` index in ``out_dir`` (starts at 1)."""
    highest = 0
    directory = os.fspath(out_dir)
    if os.path.isdir(directory):
        for entry in sorted(os.listdir(directory)):
            m = _TRAJECTORY_RE.match(entry)
            if m is not None:
                highest = max(highest, int(m.group(1)))
    return highest + 1


def write_trajectory_point(
    summary: Dict[str, Any],
    report: RegressReport,
    out_dir: Union[str, os.PathLike],
) -> str:
    """Persist one ``BENCH_<n>.json`` trajectory point; returns its path.

    The point carries the full summary (wall times included — they are
    *recorded*, just never *gated*) plus the regression verdicts, and
    deliberately no timestamp: the index orders the trajectory and the
    content stays deterministic for same-seed runs.
    """
    directory = os.fspath(out_dir)
    os.makedirs(directory, exist_ok=True)
    index = next_trajectory_index(directory)
    payload = {
        "schema": REGRESS_SCHEMA,
        "index": index,
        "summary": summary,
        "regress": report.as_dict(),
    }
    path = os.path.join(directory, f"BENCH_{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
