"""RPL2xx — the RNG stream registry, checked statically, repo-wide.

Determinism rests on every random draw flowing through a *named*
stream of a seeded :class:`repro.sim.rng.RngRegistry` (seeds derive as
``SHA-256(master_seed, name)``).  That convention has failure modes
only visible across module boundaries:

* **RPL201** — two unrelated modules claim the same stream name.  With
  a shared master seed they would draw *identical* sequences, silently
  correlating e.g. attacker behaviour with topology wiring.
* **RPL202** — a stream name built at runtime (f-string, variable).
  Dynamic names defeat the static registry: nothing can audit which
  streams exist, and collisions of the RPL201 kind become untestable.
  One idiom is exempt: a *stream family* — an f-string whose static
  literal head is a dotted namespace (``f"client.{leaf}"``), for code
  that needs one stream per host; the family prefix keeps the registry
  auditable (RPL201 checks prefixes for collisions exactly like
  literal names).
* **RPL203** — ``RngRegistry()`` with no arguments.  The default seed
  silently couples the run to whatever the default happens to be,
  instead of the scenario's explicit master seed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..diagnostics import Diagnostic
from ..project import ModuleFacts, Project, ProjectRule, StreamUse

__all__ = ["DuplicateStreamName", "NonLiteralStreamName", "UnseededRegistry"]


def _family_prefix(use: StreamUse) -> str | None:
    """The auditable family prefix of a dynamic stream name, if any.

    A *stream family* is an f-string whose static literal head is a
    dotted namespace — ``f"client.{leaf}"`` claims the ``client.``
    family.  The prefix must end with the dot so a bare variable head
    (``f"{name}-x"``) stays flagged.
    """
    prefix = use.prefix
    if prefix and prefix.endswith(".") and len(prefix) > 1:
        return prefix
    return None


class DuplicateStreamName(ProjectRule):
    code = "RPL201"
    name = "no RNG stream name claimed by two modules"
    rationale = (
        "stream seeds derive from the stream name; the same name in two "
        "modules under one master seed yields identical, correlated draws"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        # Stream families (f"client.{leaf}") claim their whole prefix:
        # the claim key is "<prefix>*", and a literal name falling under
        # another module's family prefix collides with the family too.
        claims: Dict[str, List[Tuple[str, ModuleFacts, StreamUse]]] = {}
        families: Dict[str, List[Tuple[str, ModuleFacts, StreamUse]]] = {}
        for mod_path, mod in project.modules.items():
            for use in mod.streams:
                if use.name is not None:
                    claims.setdefault(use.name, []).append((mod_path, mod, use))
                elif _family_prefix(use) is not None:
                    families.setdefault(_family_prefix(use), []).append(
                        (mod_path, mod, use)
                    )
        for prefix, sites in families.items():
            key = prefix + "*"
            claims.setdefault(key, []).extend(sites)
            for name, name_sites in claims.items():
                if name != key and name.startswith(prefix):
                    claims[key] = claims[key] + name_sites
        for name in sorted(claims):
            owners: Set[str] = {mod_path for mod_path, _, _ in claims[name]}
            if len(owners) < 2:
                continue
            for mod_path, mod, use in claims[name]:
                others = ", ".join(sorted(owners - {mod_path}))
                yield self._diag(
                    mod,
                    use.line,
                    use.col,
                    f"stream name '{name}' is also claimed by {others} — "
                    f"same master seed would correlate their draws; pick a "
                    f"module-unique name",
                )


class NonLiteralStreamName(ProjectRule):
    code = "RPL202"
    name = "no dynamic RNG stream names"
    rationale = (
        "stream names are the static registry of randomness; a name built "
        "at runtime cannot be audited for collisions or replayed from docs"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for mod_path, mod in project.modules.items():
            for use in mod.streams:
                if use.name is None and _family_prefix(use) is None:
                    yield self._diag(
                        mod,
                        use.line,
                        use.col,
                        f"non-literal stream name passed to {use.api}() — "
                        f"use a string literal (or an f-string with a dotted "
                        f"literal prefix, a stream family) so the stream "
                        f"registry stays statically auditable",
                    )


class UnseededRegistry(ProjectRule):
    code = "RPL203"
    name = "no unseeded RngRegistry construction"
    rationale = (
        "RngRegistry() without an explicit seed binds the run to an "
        "implicit default instead of the scenario's master seed"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for mod_path, mod in project.modules.items():
            for qual, fn in mod.functions.items():
                for dotted, line, col, n_args in fn.calls:
                    if n_args > 0:
                        continue
                    tail = dotted.split(".")[-1]
                    if tail == "RngRegistry":
                        is_registry = True
                    else:
                        resolved = project.resolve(mod_path, tail)
                        is_registry = (
                            resolved is not None and resolved[1] == "RngRegistry"
                        )
                    if is_registry:
                        yield self._diag(
                            mod,
                            line,
                            col,
                            "RngRegistry() constructed without an explicit "
                            "master seed — pass the scenario seed",
                        )
