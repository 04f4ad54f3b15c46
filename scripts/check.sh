#!/usr/bin/env bash
# Repository quality gate: style lint, type check, tier-1 test suite, the
# Gibbs sampler's tests without AVX-512, the pipeline benchmark's
# self-test, chaos drills and the determinism audit.
# Bit identity across worker counts, against the interpreted oracle and
# with telemetry on or off, and the audit's own determinism, are tier-1
# tests (tests/kernels/, tests/characterization/, tests/obs/,
# tests/analysis/sanitizer/); so is the exactness of every generated
# multiplier against integer products (tests/netlist/,
# tests/analysis/test_equivalence.py).  BENCHMARK.json times the flow.
#
# Tools that are not installed are skipped with a warning instead of
# failing, so the script works in minimal offline environments; the
# pytest tier-1 run is mandatory.
#
# Usage: scripts/check.sh  (from the repository root)

set -u
cd "$(dirname "$0")/.."

failures=0

run_gate() {
    local label="$1"
    shift
    echo "==== ${label}: $*"
    if "$@"; then
        echo "==== ${label}: OK"
    else
        echo "==== ${label}: FAILED"
        failures=$((failures + 1))
    fi
}

if command -v ruff >/dev/null 2>&1; then
    run_gate "ruff" ruff check src tests scripts benchmarks examples
    # The whole library holds the pylint-parity + ruff-specific bar.
    run_gate "ruff (library, strict)" ruff check --select PL,RUF src/repro
else
    echo "warning: ruff not installed; skipping style lint" >&2
fi

if command -v mypy >/dev/null 2>&1; then
    run_gate "mypy" mypy src/repro
    # New analysis/observability modules carry full annotations; keep them strict.
    run_gate "mypy (analysis, strict)" mypy --strict src/repro/analysis
    run_gate "mypy (obs, strict)" mypy --strict src/repro/obs
    run_gate "mypy (kernels, strict)" mypy --strict src/repro/kernels
else
    echo "warning: mypy not installed; skipping type check" >&2
fi

if python -c "import pytest_cov" >/dev/null 2>&1; then
    # Coverage-gated tier-1 run.  COV_FAIL_UNDER pins the seed baseline;
    # lowering it needs a deliberate edit here, not a quiet regression.
    run_gate "pytest (tier-1 + coverage)" env PYTHONPATH=src python -m pytest -x -q \
        --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under="${COV_FAIL_UNDER:-80}"
else
    echo "warning: pytest-cov not installed; running tier-1 without coverage gate" >&2
    run_gate "pytest (tier-1)" env PYTHONPATH=src python -m pytest -x -q
fi

# The Gibbs sampler's certified Gumbel-max on a host without AVX-512:
# there NumPy's log is libm's bit for bit, so the serial-oracle and pinned
# Algorithm 1 tests check the certified path on both kinds of host.
# NumPy ignores the names it does not dispatch, so this runs anywhere.
run_gate "pytest (Gibbs sampler, AVX-512 off)" env PYTHONPATH=src \
    NPY_DISABLE_CPU_FEATURES="AVX512F AVX512_SKX X86_V4 AVX512_ICL AVX512_SPR" \
    python -m pytest -x -q tests/core/test_bayesian.py tests/core/test_optimizer.py

# The pipeline benchmark's self-test lies outside pyproject's testpaths:
# it runs every workload at --smoke size and checks the runner, the
# tracer and `compare` end to end.
run_gate "pytest (pipeline benchmark self-test)" env PYTHONPATH=src \
    python -m pytest benchmarks/pipeline -q

# Chaos gate: the tier-1 suite must survive a deterministic fault plan.
# The plan injects transient failures (a one-shot crash and a one-shot
# corrupted result) into every characterisation sweep; the retry layer
# must absorb them, so the whole suite passes bit-identically.
chaos_plan='{"seed": 7, "specs": [
    {"kind": "crash",   "li": 0, "start": 0, "times": 1},
    {"kind": "corrupt", "li": 1, "times": 1}
]}'
run_gate "pytest (chaos: transient faults armed)" env PYTHONPATH=src \
    REPRO_FAULTS="${chaos_plan}" \
    python -m pytest -x -q tests/parallel tests/characterization tests/faults

# Degraded-mode drill: a persistent fault must quarantine exactly its
# target shard and still yield a usable (NaN-celled) sweep.
run_gate "chaos (degraded-mode drill)" env PYTHONPATH=src python - <<'PY'
import numpy as np
from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.config import ResilienceSettings
from repro.fabric import make_device
from repro.faults import FaultPlan

plan = FaultPlan.from_json(
    '{"seed": 7, "specs": [{"kind": "crash", "li": 0, "start": 0, "times": -1}]}'
)
cfg = CharacterizationConfig(
    freqs_mhz=(280.0, 320.0), n_samples=40,
    multiplicands=tuple(range(8)), n_locations=2, segment_chunk=4,
)
policy = ResilienceSettings(
    max_retries=1, backoff_base_s=0.0, backoff_jitter=0.0, allow_degraded=True
)
result = characterize_multiplier(
    make_device(1234), 9, 3, cfg, seed=3, resilience=policy, faults=plan
)
assert result.outcome.status == "degraded", result.outcome.status
assert result.outcome.quarantined == ((0, 0),), result.outcome.quarantined
assert np.all(np.isnan(result.variance[0, 0:4, :]))
assert np.all(np.isfinite(result.variance[1]))
print("degraded-mode drill OK:", result.outcome.as_dict()["status"],
      "quarantined", result.outcome.quarantined)
PY

# Determinism audit: the library's own source must be clean under the
# DTxxx sanitizer — zero unsuppressed findings, every pragma justified.
run_gate "audit (determinism sanitizer)" env PYTHONPATH=src \
    python -m repro.cli audit src/repro

if [ "${failures}" -ne 0 ]; then
    echo "${failures} gate(s) failed"
    exit 1
fi
echo "all gates passed"
