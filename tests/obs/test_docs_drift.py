"""The telemetry reference in docs/observability.md is generated; keep it so.

Also pins the cross-references the performance/resilience pages make to
named code surfaces, so a rename breaks a test instead of a document.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs import METRIC_CATALOG, SPAN_CATALOG, telemetry_reference_markdown

DOCS = Path(__file__).resolve().parents[2] / "docs"
DOC = DOCS / "observability.md"

BEGIN = "<!-- telemetry-reference:begin"
END = "<!-- telemetry-reference:end -->"

#: Retired surfaces no page may name: the environment switches, the
#: observability micro-benchmark and the capture-throughput histogram.
#: The resilience and lint switches became arguments (ResilienceSettings,
#: ``SynthesisFlow.run(lint=...)``); the placed-design cache lost its
#: disk tier, and with it the cache CLI, the runtime race sanitizer and
#: the cache-poisoning fault.  The multiplier equivalence prover, the
#: tiled evaluator, the dataflow probe, ``repro analyze``'s proof flag
#: and the dataflow micro-benchmark went once the generator tests
#: compared against integer products.  The determinism audit judges
#: every function, so its entry points, call-graph index, reachability
#: wording and ``--disable`` went; lint severities and the backoff
#: schedule are constants.  The sweep drives its placed multiplier
#: directly, so the modelled test bench (controller FSM, stream BRAMs and
#: the circuit that held them) went, with the per-cell record flattener
#: and the strict shard wrapper.
RETIRED = (
    "REPRO_TRACE",
    "REPRO_METRICS",
    "REPRO_SHARD_TIMEOUT",
    "REPRO_MAX_RETRIES",
    "REPRO_ALLOW_DEGRADED",
    "REPRO_LINT_GENERATED",
    "REPRO_LINT_SYNTHESIS",
    "REPRO_CACHE_DIR",
    "REPRO_SANITIZE",
    "repro cache info",
    "repro cache verify",
    "poison-cache",
    "benchmarks/bench_observability.py",
    "capture.samples_per_second",
    "prove_multiplier",
    "evaluate_tile",
    "probe_dataflow",
    "BENCH_dataflow",
    "bench_dataflow.py",
    "--prove",
    "ENTRY_POINTS",
    "build_module_index",
    "shard-reachable",
    "--disable DT",
    "severity_overrides",
    "backoff_factor",
    "backoff_max_s",
    "CharacterizationCircuit",
    "CharacterizationFSM",
    "InputStreamBRAM",
    "OutputStreamBRAM",
    "M9K_BITS",
    "max_stream_depth",
    "execute_shards",
    "CharacterizationRecord",
)


def _doc_reference() -> str:
    text = DOC.read_text()
    assert BEGIN in text and END in text, "telemetry-reference markers missing"
    start = text.index("\n", text.index(BEGIN)) + 1
    return text[start : text.index(END)].strip()


def test_doc_reference_matches_catalogue():
    assert _doc_reference() == telemetry_reference_markdown().strip(), (
        "docs/observability.md telemetry reference is stale; regenerate "
        "the block between the telemetry-reference markers with "
        "repro.obs.telemetry_reference_markdown()"
    )


def test_every_span_documented_exactly_once():
    table = _doc_reference()
    for spec in SPAN_CATALOG:
        assert len(re.findall(rf"\| `{re.escape(spec.name)}` \|", table)) == 1


def test_every_metric_documented_exactly_once():
    table = _doc_reference()
    for spec in METRIC_CATALOG:
        assert len(re.findall(rf"\| `{re.escape(spec.name)}` \|", table)) == 1


def test_doc_mentions_the_surfaces():
    text = DOC.read_text()
    for needle in (
        "repro obs reference",
        "repro obs trace",
        "repro obs metrics",
        "deterministic_counters",
        "chrome://tracing",
        "tests/obs/test_noop_identity.py",
    ):
        assert needle in text, f"docs/observability.md lost {needle}"
    for page in sorted(DOCS.glob("*.md")) + [DOCS.parent / "README.md"]:
        page_text = page.read_text()
        for needle in RETIRED:
            assert needle not in page_text, f"{page.name} still names {needle}"


def test_docs_index_links_every_page():
    index = (DOCS / "index.md").read_text()
    for page in sorted(p.name for p in DOCS.glob("*.md") if p.name != "index.md"):
        assert f"({page})" in index, f"docs/index.md does not link {page}"


def test_performance_doc_names_are_current():
    text = (DOCS / "performance.md").read_text()
    for needle in (
        "characterize_multiplier",
        "capture_stream_batch",
        "PlacedDesignCache",
        "REPRO_JOBS",
        "BENCHMARK.json",
        "capture.batch",   # obs cross-reference
        "docs/observability.md",
    ):
        assert needle in text, f"docs/performance.md lost {needle}"


def test_resilience_doc_names_are_current():
    text = (DOCS / "resilience.md").read_text()
    for needle in (
        "REPRO_FAULTS",
        "ResilienceSettings",
        "--max-retries",
        "--allow-degraded",
        "SweepOutcome",
        "fallback_inline",
        "SweepFailedError",
        "sweep.shards.{total,completed,retried,recovered,quarantined}",
        "docs/observability.md",
    ):
        assert needle in text, f"docs/resilience.md lost {needle}"
