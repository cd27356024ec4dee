"""Per-layer tracing for one benchmark cell.

The wrappers live here, outside the program: :class:`LayerTracer`
patches public entry points of each layer (and the few private
completion/timer methods that carry a layer's work) before the scenario
is built, and restores every original afterwards.  A span is kept only
while it is open: each call pushes a frame on a call stack, and on
return its duration minus the time of the spans it called is added to
its layer's self time.  Only per-layer sums and per-entry-point counts
are kept, so memory does not grow with the packets simulated.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layers whose self time is reported, in report order.
LAYERS = (
    "engine",
    "scheduler",
    "link",
    "node",
    "hooks",
    "traffic",
    "backprop",
    "pushback",
    "obs",
    "topology",
    "routing",
)
HOOK_FAMILIES = ("backprop", "pushback", "other")


def _family(obj: Any) -> str:
    """Protocol family of a control payload or hook owner."""
    module = type(obj).__module__
    if module.startswith("repro.backprop") or module.startswith("repro.defense"):
        return "backprop"
    if module.startswith("repro.pushback"):
        return "pushback"
    return "other"


class LayerTracer:
    """Call-stack self-time and call-count aggregation per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # One [children's seconds, entry-point name] frame per open span.
        self._stack: List[List[Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._hook_of: Dict[Any, Any] = {}
        self.live_hwm = 0

    # ------------------------------------------------------------------
    def span(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        layer_of: Optional[Callable[..., str]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span charged to ``layer`` (or to
        ``layer_of(*args)`` when given); ``before``/``after`` see the
        call's arguments (and, for ``after``, its result)."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            if before is not None:
                before(*args)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = layer if layer_of is None else layer_of(*args)
                self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result, *args)
            return result

        return traced

    def patch(self, owner: Any, attr: str, layer: str, **kw: Any) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) in a span."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        name = f"{owner.__name__}.{attr}"
        setattr(owner, attr, self.span(layer, name, original, **kw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._hook_of.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point (call before the scenario is built)."""
        from repro.backprop.session import HoneypotSession
        from repro.experiments import scenarios
        from repro.obs.journal import Journal
        from repro.obs.spans import SpanRecorder
        from repro.pushback import aggregate, protocol
        from repro.sim.engine import Simulator
        from repro.sim.link import Channel
        from repro.sim.network import Network
        from repro.sim.node import Host, Node, Router
        from repro.sim.scheduler import CalendarQueueScheduler, HeapScheduler
        from repro.traffic.sources import CBRSource

        calls = self.calls
        stack = self._stack

        # Set-up.
        self.patch(scenarios, "build_tree_topology", "topology")
        self.patch(Network, "build_routes", "routing")

        # Engine: the dispatch loop and the scheduling API.
        self.patch(Simulator, "run", "engine")

        def count_schedule(sim: Any, *args: Any) -> None:
            calls["engine.schedules"] += 1

        def count_schedule_at(sim: Any, *args: Any) -> None:
            # schedule() calls schedule_at(); count that pair once.
            if not (stack and stack[-1][1] == "Simulator.schedule"):
                calls["engine.schedules"] += 1

        def note_live(result: Any, sim: Any, *args: Any) -> None:
            live = sim.pending(live=True)
            if live > self.live_hwm:
                self.live_hwm = live

        self.patch(Simulator, "schedule", "engine", before=count_schedule)
        self.patch(
            Simulator, "schedule_at", "engine", before=count_schedule_at,
            after=note_live,
        )
        self.patch(
            Simulator, "schedule_many", "engine", before=count_schedule,
            after=note_live,
        )

        # Scheduler structures.
        for cls in (HeapScheduler, CalendarQueueScheduler):
            self.patch(cls, "push", "scheduler")
            self.patch(cls, "pop", "scheduler")

        # Link: send plus the completion callbacks it schedules.
        def note_backlog(ch: Any, *args: Any) -> None:
            if len(ch.queue):
                calls["link.backlogged_sends"] += 1

        self.patch(Channel, "send", "link", before=note_backlog)
        for attr in ("_fused_done", "_drain", "_transmit", "_tx_done", "_deliver"):
            self.patch(Channel, attr, "link")

        # Node + routing.
        self.patch(Router, "receive", "node")
        self.patch(Host, "receive", "node")
        self.patch(Node, "route_to", "node")

        # Ingress hooks, wrapped as they are registered.
        hook_of = self._hook_of
        add_hook = Router.add_ingress_hook
        remove_hook = Router.remove_ingress_hook

        def traced_add(router: Any, hook: Any) -> None:
            family = _family(getattr(hook, "__self__", hook))

            def count_hit(result: Any, *args: Any) -> None:
                if result:
                    calls[f"hooks.{family}.hits"] += 1

            wrapped = self.span("hooks", f"hooks.{family}", hook, after=count_hit)
            hook_of[hook] = wrapped
            add_hook(router, wrapped)

        def traced_remove(router: Any, hook: Any) -> None:
            remove_hook(router, hook_of.get(hook, hook))

        self._patched.append((Router, "add_ingress_hook", add_hook))
        self._patched.append((Router, "remove_ingress_hook", remove_hook))
        Router.add_ingress_hook = traced_add  # type: ignore[method-assign]
        Router.remove_ingress_hook = traced_remove  # type: ignore[method-assign]

        # Traffic sources.
        self.patch(CBRSource, "_send_packet", "traffic")
        self.patch(Node, "originate", "traffic")

        # Control plane: messages sent and handlers run, by protocol family.
        def count_control(node: Any, dst: Any, msg: Any, *args: Any) -> None:
            calls[f"control.{_family(msg)}.sent"] += 1

        self.patch(
            Node, "send_control", "backprop",
            layer_of=lambda node, dst, msg, *a: _family(msg),
            before=count_control,
        )
        self.patch(
            Node, "_dispatch_control", "backprop",
            layer_of=lambda node, pkt, *a: _family(pkt.payload),
        )
        self.patch(HoneypotSession, "__init__", "backprop")

        # Pushback: ACC review/status timers and what they call.
        self.patch(protocol.PushbackAgent, "_review", "pushback")
        self.patch(protocol.PushbackAgent, "_send_status", "pushback")
        for attr in ("record", "counts_since", "bytes_since"):
            self.patch(aggregate.DropHistory, attr, "pushback")
        self.patch(protocol, "identify_aggregates", "pushback")
        self.patch(protocol, "maxmin_allocation_map", "pushback")

        # Observability recorders.
        self.patch(Journal, "record", "obs")
        for attr in ("start", "end", "event"):
            self.patch(SpanRecorder, attr, "obs")

    # ------------------------------------------------------------------
    def hook_count(self, family: Optional[str] = None, hits: bool = False) -> int:
        """Ingress-hook calls (or calls that returned True), per family."""
        families = HOOK_FAMILIES if family is None else (family,)
        suffix = ".hits" if hits else ""
        return sum(self.calls[f"hooks.{f}{suffix}"] for f in families)
