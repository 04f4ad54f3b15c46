"""Shell workflow for the per-device flow: ``repro-flow``.

The paper's deployment story as shell steps, with artefacts persisted in a
:class:`~repro.workspace.Workspace` so each stage can run in its own
session (or on another machine):

::

    repro-flow init      WS --serial 42 --scale 0.1
    repro-flow characterize WS --jobs 4
    repro-flow fit-area  WS
    repro-flow optimize  WS --beta 4.0 --name run1
    repro-flow evaluate  WS --name run1 --domain actual
    repro-flow status    WS

``characterize --jobs`` (or ``REPRO_JOBS``) fans the characterisation
sweeps out over a process pool; results are identical at any worker
count.  ``optimize`` and ``evaluate`` read the archived sweeps and area
model, and exit 2 naming the stage to run first when they are missing.
Placed designs are cached under ``WS/cache/placed`` and reused across
stages and sessions.

Telemetry: the top-level ``--trace PATH`` / ``--metrics PATH`` flags
enable :mod:`repro.obs` for the invoked stage — ``--trace`` writes both
a JSONL sidecar and a Chrome ``trace_event`` file (and, unless
``--metrics`` names its own path, a metrics snapshot next to them).
Telemetry never changes the numbers; see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from .circuits.domains import Domain
from .config import ResilienceSettings, TableISettings
from .errors import ConfigError, SweepFailedError
from .eval.report import render_table
from .fabric.device import make_device
from .obs import runtime as obs
from .stages import (
    characterize_workspace,
    evaluate_workspace,
    fit_area_workspace,
    optimize_workspace,
)
from .workspace import Workspace

__all__ = ["export_telemetry", "main", "resolve_telemetry_paths"]


def _cmd_init(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    settings = TableISettings().scaled(args.scale)
    device = make_device(args.serial)
    ws.initialize(device, settings, seed=args.serial)
    print(f"initialised workspace {ws.root} for device serial {args.serial} "
          f"({settings.n_characterization} characterisation cases/cell)")
    return 0


def _print_characterize_progress(event: dict) -> None:
    """Render stage progress events exactly as the flow CLI always has."""
    if event["event"] == "wordlength.start":
        print(f"characterising {event['w_data']}x{event['wl']} ...", flush=True)
    elif event["event"] == "wordlength.done":
        print(f"  -> {event['path']}")
        if event["status"] != "complete":
            quarantined = ", ".join(
                f"(li={li}, start={start})" for li, start in event["quarantined"]
            )
            print(
                f"  WARNING: sweep degraded — quarantined shards: {quarantined}; "
                f"the affected grid cells are NaN",
                flush=True,
            )


def _cmd_characterize(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    characterize_workspace(
        ws,
        jobs=args.jobs,
        resilience=ResilienceSettings(
            shard_timeout_s=args.shard_timeout,
            max_retries=args.max_retries,
            allow_degraded=args.allow_degraded,
        ),
        progress=_print_characterize_progress,
    )
    return 0


def _cmd_fit_area(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    model, path = fit_area_workspace(ws)
    print(f"fitted area model (relative sigma {model.residual_sigma:.1%}) -> {path}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    result, path = optimize_workspace(ws, args.name, args.beta)
    print(f"Algorithm 1 produced {len(result.designs)} designs "
          f"(beta={args.beta}) -> {path}")
    for d in sorted(result.designs, key=lambda d: d.area_le or 0):
        print(f"  {d.describe()} T={d.metadata['objective_t']:.3e}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    domain = Domain(args.domain)
    rows = evaluate_workspace(ws, args.name, domain)
    print(render_table(
        ["wordlengths", "area LE", f"{domain.value} MSE"],
        [(str(tuple(r["wordlengths"])), f"{r['area_le']:.0f}", r["mse"]) for r in rows],
        title=f"design set {args.name!r} @ {ws.settings().clock_frequency_mhz:.0f} MHz",
    ))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    meta = ws.device().report()
    print(f"workspace: {ws.root}")
    print(f"device: {meta['family']} serial {meta['serial']}")
    wls = ws.characterized_wordlengths()
    print(f"characterised word-lengths: {wls or 'none'}")
    health = ws.sweep_health()
    degraded = {wl: h for wl, h in health.items() if h["status"] != "complete"}
    if degraded:
        print("DEGRADED characterisation data:")
        for wl, h in sorted(degraded.items()):
            cells = ", ".join(
                f"(li={li}, start={start})" for li, start in h["quarantined"]
            )
            print(f"  wl{wl:02d}: {h['n_quarantined']} shard(s) quarantined "
                  f"[{cells}] — affected grid cells are NaN")
    print(f"area model: {'fitted' if ws.area_model_path.exists() else 'missing'}")
    print(f"design sets: {ws.design_sets() or 'none'}")
    stats = ws.placed_cache().stats()
    print(f"placed-design cache: {stats.disk_entries} entries, "
          f"{stats.disk_bytes} bytes ({ws.cache_dir})")
    return 0


def resolve_telemetry_paths(
    trace: str | None, metrics: str | None
) -> tuple[str | None, str | None]:
    """Final (trace_base, metrics_path) from the ``--trace``/``--metrics`` flags.

    A trace request without a metrics path still snapshots metrics, next
    to the trace files (``<base>.metrics.json``) — a trace without its
    counters is half a story.
    """
    if trace and not metrics:
        metrics = str(obs.default_metrics_path(trace))
    return trace, metrics


def export_telemetry(trace: str | None, metrics: str | None) -> None:
    """Write whatever telemetry was requested; report the paths on stderr."""
    if trace:
        jsonl_path, chrome_path = obs.export_trace_files(trace)
        print(
            f"trace written: {jsonl_path} (JSONL), {chrome_path} (chrome://tracing)",
            file=sys.stderr,
        )
    if metrics:
        obs.snapshot_metrics(metrics)
        print(f"metrics written: {metrics}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="Per-device optimisation flow with persistent artefacts.",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="trace the run: writes PATH.jsonl and PATH.json (Chrome "
        "trace_event) plus a metrics snapshot",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot of the run to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a workspace for one device")
    p.add_argument("workspace")
    p.add_argument("--serial", type=int, default=42)
    p.add_argument("--scale", type=float, default=0.05,
                   help="fraction of Table I's sample counts")
    p.set_defaults(fn=_cmd_init)

    p = sub.add_parser("characterize", help="run the multiplier characterisation")
    p.add_argument("workspace")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1; must be >= 1)",
    )
    p.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard timeout on the pool path (default: none)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=ResilienceSettings.max_retries,
        metavar="N",
        help="inline retries per failing shard (default: %(default)s)",
    )
    p.add_argument(
        "--allow-degraded",
        action="store_true",
        help="accept sweeps with quarantined shards (NaN cells) instead "
             "of failing",
    )
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("fit-area", help="fit the LE-cost model")
    p.add_argument("workspace")
    p.set_defaults(fn=_cmd_fit_area)

    p = sub.add_parser("optimize", help="run Algorithm 1")
    p.add_argument("workspace")
    p.add_argument("--beta", type=float, default=4.0)
    p.add_argument("--name", default="run1", help="design-set name")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("evaluate", help="evaluate a stored design set")
    p.add_argument("workspace")
    p.add_argument("--name", default="run1")
    p.add_argument("--domain", choices=[d.value for d in Domain], default="actual")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("status", help="show workspace contents")
    p.add_argument("workspace")
    p.set_defaults(fn=_cmd_status)

    args = parser.parse_args(argv)
    trace_path, metrics_path = resolve_telemetry_paths(args.trace, args.metrics)
    if trace_path or metrics_path:
        obs.enable_observability(
            trace=bool(trace_path), metrics=bool(metrics_path)
        )
    try:
        return args.fn(args)
    except SweepFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: raise --max-retries, or pass --allow-degraded to accept "
            "NaN cells for the quarantined shards",
            file=sys.stderr,
        )
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_path or metrics_path:
            # Export even on a failed stage: a trace of the failure is
            # exactly when you want the telemetry.
            export_telemetry(trace_path, metrics_path)
            obs.disable_observability()


if __name__ == "__main__":
    sys.exit(main())
