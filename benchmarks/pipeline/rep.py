"""One rep of a pipeline-benchmark workload, in a fresh process.

The runner starts ``python -m benchmarks.pipeline.rep '<json payload>'``
once per rep (and once per run for a workload's ``prepare`` step), in the
cleaned environment of :data:`benchmarks.pipeline.spec.REP_ENV`.  The
payload names the workload, seed, size, mode and the files to write; the
rep writes its measurements as JSON to the ``result`` file.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: before numpy or repro load

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from . import spec  # noqa: E402
from .calibrate import probe_s  # noqa: E402
from .trace import Tracer  # noqa: E402
from .workloads import WORKLOADS, digest  # noqa: E402


def main(payload: dict) -> None:
    name = payload["workload"]
    workload = WORKLOADS[name]
    size = spec.sizes(name, payload["smoke"])
    seed = payload["seed"]
    inputs = Path(payload["inputs"])
    if payload["mode"] == "prepare":
        if workload.prepare is not None:
            workload.prepare(seed, size, inputs)
        return

    timed_call = workload.setup(seed, size, inputs)
    tracer = Tracer(name, payload["rep"]) if payload["trace"] else None
    if tracer is not None:
        tracer.install()
    t_start = time.perf_counter()
    output = timed_call()
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(payload["spans"]), origin=t_start)

    # Read before the probe, whose arrays must not count.  KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = probe_s()
    problems = workload.check(output, size)
    if payload["force_fail"]:
        problems.append("check forced to fail")
    result = {
        "setup_host_s": t_start - _T0,
        "wall_host_s": t_end - t_start,
        "probe_s": probe,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(workload.canonical(output)),
        "quality": workload.quality(output),
        "problems": problems,
    }
    Path(payload["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
