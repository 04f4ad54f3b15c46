"""The DT rule registry: stable IDs over the effect catalogue.

Each ``DTnnn`` rule binds one effect from
:mod:`repro.analysis.sanitizer.effects` to a stable identifier, a name
and a finding template — the same shape as the ``NLxxx``/``WLxxx``
netlist rules, so suppression (`# repro: allow[DTnnn] -- reason`),
documentation generation and drift testing all work identically.

``DT000`` is the meta-rule: it polices the pragmas themselves, so a
suppression without a justification (or naming an unknown rule) is a
finding rather than a silent hole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .effects import (
    EFFECT_AMBIENT_RNG,
    EFFECT_BUILTIN_HASH,
    EFFECT_ENTROPY,
    EFFECT_ENV_READ,
    EFFECT_FORK_UNSAFE,
    EFFECT_MODULE_STATE,
    EFFECT_NONATOMIC_WRITE,
    EFFECT_UNORDERED_ITER,
    EFFECT_WALL_CLOCK,
)

__all__ = [
    "DT_REGISTRY",
    "DTRule",
    "PRAGMA_RULE_ID",
    "dt_rule_table",
    "dt_rule_table_markdown",
    "rule_for_effect",
]

#: The meta-rule ID for malformed/unjustified suppression pragmas.
PRAGMA_RULE_ID = "DT000"


@dataclass(frozen=True)
class DTRule:
    """One determinism/concurrency rule.

    Attributes
    ----------
    rule_id:
        Stable ``DTnnn`` identifier.
    name:
        Short kebab-case rule name.
    effect:
        The catalogued effect the rule polices (empty for the DT000
        meta-rule, which polices pragmas rather than code).
    description:
        What a finding of this rule means.
    """

    rule_id: str
    name: str
    effect: str
    description: str


#: Registry of every DT rule, keyed by rule ID.
DT_REGISTRY: dict[str, DTRule] = {}


def _register(rule: DTRule) -> DTRule:
    DT_REGISTRY[rule.rule_id] = rule
    return rule


_register(
    DTRule(
        PRAGMA_RULE_ID,
        "pragma-hygiene",
        "",
        "A `# repro: allow[...]` pragma is malformed: it names an unknown "
        "rule ID or carries no `-- justification`. Suppressions must say "
        "why the hazard is sound, or they are findings themselves.",
    )
)
_register(
    DTRule(
        "DT001",
        "ambient-rng",
        EFFECT_AMBIENT_RNG,
        "Shard-reachable code draws randomness from global generator "
        "state (`random.*`, `numpy.random.*` module functions, or an "
        "argument-less `default_rng()`) instead of a generator seeded "
        "through `repro.rng.derive_seed`/`SeedTree`.",
    )
)
_register(
    DTRule(
        "DT002",
        "wall-clock",
        EFFECT_WALL_CLOCK,
        "Shard-reachable code reads a clock (`time.time`, "
        "`time.perf_counter`, `datetime.now`, ...) outside the "
        "observability layer and the catalogued latency call sites.",
    )
)
_register(
    DTRule(
        "DT003",
        "ambient-env",
        EFFECT_ENV_READ,
        "Code reads `os.environ`/`os.getenv` outside the declared "
        "configuration entry points (`resolve_jobs` for REPRO_JOBS, "
        "`FaultPlan.from_env` for REPRO_FAULTS), making behaviour depend "
        "on inherited environment.",
    )
)
_register(
    DTRule(
        "DT004",
        "unordered-iteration",
        EFFECT_UNORDERED_ITER,
        "A set/frozenset expression is iterated (or materialised with "
        "`list`/`tuple`) without `sorted()`: the order follows string "
        "hashes, which vary with PYTHONHASHSEED across processes.",
    )
)
_register(
    DTRule(
        "DT005",
        "mutable-module-state",
        EFFECT_MODULE_STATE,
        "A shard-reachable module declares a mutable module-level "
        "container (dict/list/set): mutations diverge silently between "
        "pool workers and the inline path.",
    )
)
_register(
    DTRule(
        "DT006",
        "nonatomic-shared-write",
        EFFECT_NONATOMIC_WRITE,
        "A shared-disk module opens a file for writing in a function "
        "without the write-to-temp + `os.replace` discipline, so "
        "concurrent writers can tear each other's entries.",
    )
)
_register(
    DTRule(
        "DT008",
        "fork-unsafe-capture",
        EFFECT_FORK_UNSAFE,
        "A lambda, nested closure or bound method is submitted to a "
        "process pool: its captured state does not survive fork/spawn "
        "identically, and may not pickle at all.",
    )
)
_register(
    DTRule(
        "DT009",
        "builtin-hash",
        EFFECT_BUILTIN_HASH,
        "Shard-reachable code calls built-in `hash()`: string hashes are "
        "salted per process (PYTHONHASHSEED), so derived values differ "
        "between workers. Use `hashlib` or `repro.rng.derive_seed`.",
    )
)
_register(
    DTRule(
        "DT010",
        "entropy-read",
        EFFECT_ENTROPY,
        "Shard-reachable code reads OS entropy (`os.urandom`, "
        "`uuid.uuid4`, `secrets.*`): irreproducible by construction.",
    )
)

_RULE_BY_EFFECT: dict[str, DTRule] = {
    rule.effect: rule for rule in DT_REGISTRY.values() if rule.effect
}


def rule_for_effect(effect: str) -> DTRule:
    """The DT rule policing ``effect``; unknown effects raise ``KeyError``."""
    return _RULE_BY_EFFECT[effect]


def dt_rule_table() -> list[tuple[str, str, str, str]]:
    """``(rule_id, name, effect, description)`` rows, sorted by rule ID."""
    return [
        (r.rule_id, r.name, r.effect, r.description)
        for r in sorted(DT_REGISTRY.values(), key=lambda r: r.rule_id)
    ]


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def dt_rule_table_markdown() -> str:
    """The DT rule catalogue as a GitHub-flavoured markdown table.

    Embedded in ``docs/static_analysis.md`` between generated-content
    markers; ``tests/analysis/sanitizer/test_docs_drift.py`` fails when
    they diverge.
    """
    lines = [
        "| ID | Name | Effect | Finding |",
        "|----|------|--------|---------|",
    ]
    for rule_id, name, effect, description in dt_rule_table():
        effect_cell = f"`{effect}`" if effect else "—"
        lines.append(
            f"| {rule_id} | `{name}` | {effect_cell} | {_escape(description)} |"
        )
    return "\n".join(lines)
