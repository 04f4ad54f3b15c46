"""The determinism effect catalogue: every ambient effect the audit polices.

The sanitizer is **closed-world** in the same sense as the telemetry
catalogue (:mod:`repro.obs.spec`): the set of effects it recognises, the
shard entry points it roots reachability at, and the places allowed to
perform each effect are all declared *here*, in one reviewable table.
Code anywhere else that performs a catalogued effect is a finding — the
auditor does not guess intent, and a new legitimate use must either be
added to :data:`ALLOWANCES` (library-wide policy) or carry an inline
``# repro: allow[DTnnn] -- reason`` pragma (one-off, justified in place).

Why these effects: the process pool, the placed-design cache and the
compiled hot path all rest on the invariant that shard work is
bit-identical at any worker count.  Each catalogued effect is a way
that invariant silently breaks — ambient RNG, wall-clock reads,
hash-order iteration, non-atomic shared-disk writes — and each maps to
exactly one ``DTnnn`` rule (:mod:`repro.analysis.sanitizer.rules`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ALLOWANCES",
    "Allowance",
    "EFFECT_CATALOG",
    "EFFECT_AMBIENT_RNG",
    "EFFECT_BUILTIN_HASH",
    "EFFECT_ENTROPY",
    "EFFECT_ENV_READ",
    "EFFECT_FORK_UNSAFE",
    "EFFECT_MODULE_STATE",
    "EFFECT_NONATOMIC_WRITE",
    "EFFECT_UNORDERED_ITER",
    "EFFECT_WALL_CLOCK",
    "EffectSpec",
    "ENTRY_POINTS",
    "SCOPE_EVERYWHERE",
    "SCOPE_REACHABLE",
    "SCOPE_SHARED_DISK",
    "SHARED_DISK_MODULES",
    "effect_catalogue_markdown",
]

#: Effect kinds, one per DT rule (see ``rules.py`` for the pairing).
EFFECT_AMBIENT_RNG = "rng.ambient"
EFFECT_WALL_CLOCK = "time.wall_clock"
EFFECT_ENV_READ = "env.read"
EFFECT_UNORDERED_ITER = "iter.unordered"
EFFECT_MODULE_STATE = "state.module_mutable"
EFFECT_NONATOMIC_WRITE = "fs.nonatomic_write"
EFFECT_FORK_UNSAFE = "pool.fork_unsafe"
EFFECT_BUILTIN_HASH = "hash.builtin"
EFFECT_ENTROPY = "entropy.read"

#: Enforcement scopes.  ``reachable``: only code transitively reachable
#: from :data:`ENTRY_POINTS` is held to the rule (a wall-clock read in a
#: report renderer is fine; one in a shard is not).  ``shared_disk``:
#: only modules in :data:`SHARED_DISK_MODULES` (the workspace).
#: ``everywhere``: the whole audited tree.
SCOPE_REACHABLE = "reachable"
SCOPE_SHARED_DISK = "shared_disk"
SCOPE_EVERYWHERE = "everywhere"


@dataclass(frozen=True)
class EffectSpec:
    """One ambient effect the auditor detects.

    Attributes
    ----------
    effect:
        Stable dotted effect name (``category.kind``).
    scope:
        Where occurrences count as findings (see the scope constants).
    description:
        What the effect is and why it endangers shard determinism.
    """

    effect: str
    scope: str
    description: str


#: Catalogue of every effect the auditor recognises, sorted by name.
EFFECT_CATALOG: tuple[EffectSpec, ...] = (
    EffectSpec(
        EFFECT_AMBIENT_RNG,
        SCOPE_REACHABLE,
        "Randomness drawn from global generator state (`random.*`, "
        "`numpy.random.*` module functions, argument-less `default_rng()`) "
        "instead of a seed derived via `repro.rng.derive_seed`: results "
        "then depend on draw interleaving across shards and workers.",
    ),
    EffectSpec(
        EFFECT_BUILTIN_HASH,
        SCOPE_REACHABLE,
        "Built-in `hash()` on shard-reachable paths: string hashes vary "
        "with PYTHONHASHSEED, so any value derived from them differs "
        "between worker processes.",
    ),
    EffectSpec(
        EFFECT_ENTROPY,
        SCOPE_REACHABLE,
        "OS entropy reads (`os.urandom`, `uuid.uuid1/uuid4`, `secrets.*`, "
        "`random.SystemRandom`): irreproducible by construction.",
    ),
    EffectSpec(
        EFFECT_ENV_READ,
        SCOPE_EVERYWHERE,
        "Ambient `os.environ`/`os.getenv` reads outside the declared "
        "configuration entry points: behaviour then varies with inherited "
        "environment instead of explicit arguments, and pool workers may "
        "see a different environment than the parent.",
    ),
    EffectSpec(
        EFFECT_FORK_UNSAFE,
        SCOPE_EVERYWHERE,
        "Work shipped to a `ProcessPoolExecutor` as a lambda, nested "
        "closure or bound method: such callables capture parent-process "
        "state (open handles, RNG objects) that does not survive "
        "fork/spawn identically.",
    ),
    EffectSpec(
        EFFECT_MODULE_STATE,
        SCOPE_REACHABLE,
        "Mutable module-level containers in shard-reachable modules: "
        "state mutated in one pool worker silently diverges from the "
        "others and from the inline path.",
    ),
    EffectSpec(
        EFFECT_NONATOMIC_WRITE,
        SCOPE_SHARED_DISK,
        "A write-mode file open in a shared-disk module whose enclosing "
        "function lacks the write-to-temp + `os.replace` discipline: "
        "concurrent writers can interleave and readers can observe torn "
        "entries.",
    ),
    EffectSpec(
        EFFECT_UNORDERED_ITER,
        SCOPE_EVERYWHERE,
        "Iteration over a set/frozenset expression (or materialising one "
        "with `list`/`tuple`) without `sorted()`: iteration order follows "
        "hash order, which for strings varies with PYTHONHASHSEED.",
    ),
    EffectSpec(
        EFFECT_WALL_CLOCK,
        SCOPE_REACHABLE,
        "Wall-clock or monotonic-clock reads (`time.time`, "
        "`time.perf_counter`, `datetime.now`, ...) on shard-reachable "
        "paths outside the observability layer and its declared "
        "latency-bookkeeping call sites.",
    ),
)


#: Shard entry points (``module:qualname``): reachability roots for the
#: ``reachable``-scoped rules.  Everything a pool worker or the inline
#: fallback can execute hangs off these.
ENTRY_POINTS: tuple[str, ...] = (
    "repro.characterization.harness:characterize_multiplier",
    "repro.core.optimizer:optimize_designs",
    "repro.faults.injector:FaultInjector.fire_pre",
    "repro.faults.injector:FaultInjector.mutate_result",
    "repro.parallel.cache:PlacedDesignCache.get_or_place",
    "repro.parallel.engine:_init_worker",
    "repro.parallel.engine:_run_shard_in_worker",
    "repro.parallel.engine:run_shard",
    "repro.parallel.engine:run_sweep",
)

#: Modules whose on-disk artefacts are shared between concurrent
#: processes; the ``shared_disk`` rule applies only here.
SHARED_DISK_MODULES: tuple[str, ...] = ("repro.workspace",)


@dataclass(frozen=True)
class Allowance:
    """One library-wide permission to perform an effect.

    Attributes
    ----------
    effect:
        The effect being allowed (an :data:`EFFECT_CATALOG` name).
    module:
        Dotted module the allowance applies to.
    qualname:
        Function/method qualname within the module (prefix match on the
        dotted path), or ``None`` for the whole module.
    reason:
        Why this use is sound — rendered into the generated docs table,
        so it must actually justify the hole it punches.
    """

    effect: str
    module: str
    qualname: str | None
    reason: str


#: The policy table: every sanctioned effect occurrence in the library.
ALLOWANCES: tuple[Allowance, ...] = (
    # --- env.read: the configuration front doors -----------------------
    Allowance(
        EFFECT_ENV_READ,
        "repro.parallel.jobs",
        "resolve_jobs",
        "REPRO_JOBS is the worker-count entry point; callers receive the "
        "resolved integer, never the raw environment.",
    ),
    Allowance(
        EFFECT_ENV_READ,
        "repro.faults.plan",
        "FaultPlan.from_env",
        "REPRO_FAULTS is the chaos plan's documented entry point; the "
        "plan itself is deterministic once parsed.",
    ),
    # --- wall_clock: sanctioned latency bookkeeping ---------------------
    Allowance(
        EFFECT_WALL_CLOCK,
        "repro.parallel.engine",
        None,
        "perf_counter reads feed the shard attempt latencies of the "
        "sweep outcome report only; shard numerics never consume them.",
    ),
    Allowance(
        EFFECT_WALL_CLOCK,
        "repro.core.bayesian",
        "sample_projection_vectors",
        "Per-draw sampling seconds are a *deliverable* here: the paper's "
        "runtime model (eqs. 7-8) is fitted to the optimizer's "
        "sampling_times records built from them; they ride alongside "
        "results without feeding any numeric path.",
    ),
    # --- module state: deliberate, documented singletons ----------------
    Allowance(
        EFFECT_MODULE_STATE,
        "repro.analysis.passes",
        "REGISTRY",
        "Rule registry populated by decorators at import time and "
        "treated as frozen thereafter; workers re-import identically.",
    ),
    Allowance(
        EFFECT_MODULE_STATE,
        "repro.kernels.plan",
        "_PLAN_CACHE",
        "Execution-plan memo keyed by netlist content hash; entries are "
        "immutable once built and installs go through _PLAN_CACHE_LOCK "
        "with setdefault, so concurrent compilers converge on one plan.",
    ),
    Allowance(
        EFFECT_MODULE_STATE,
        "repro.obs.spec",
        "_SPANS_BY_NAME",
        "Telemetry-catalogue index built from the frozen SPAN_CATALOG "
        "tuple at import time; never mutated.",
    ),
    Allowance(
        EFFECT_MODULE_STATE,
        "repro.obs.spec",
        "_METRICS_BY_NAME",
        "Telemetry-catalogue index built from the frozen METRIC_CATALOG "
        "tuple at import time; never mutated.",
    ),
)


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def effect_catalogue_markdown() -> str:
    """The effect catalogue + allowance policy as markdown tables.

    Embedded in ``docs/static_analysis.md`` between generated-content
    markers; ``tests/analysis/sanitizer/test_docs_drift.py`` fails when
    they diverge.
    """
    lines = [
        "| Effect | Scope | Hazard |",
        "|---|---|---|",
    ]
    for spec in sorted(EFFECT_CATALOG, key=lambda s: s.effect):
        lines.append(
            f"| `{spec.effect}` | {spec.scope} | {_escape(spec.description)} |"
        )
    lines += [
        "",
        "Sanctioned occurrences (the allowance policy):",
        "",
        "| Effect | Where | Why it is sound |",
        "|---|---|---|",
    ]
    for allow in sorted(ALLOWANCES, key=lambda a: (a.effect, a.module, a.qualname or "")):
        where = f"`{allow.module}`" + (
            f" · `{allow.qualname}`" if allow.qualname else ""
        )
        lines.append(f"| `{allow.effect}` | {where} | {_escape(allow.reason)} |")
    return "\n".join(lines)
