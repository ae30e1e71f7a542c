"""One cold workload process: import bioperad, set up, run, report.

    python3 perfbench/child.py <workload> <setup|run|trace> [input ...]

The benchmark process starts this script in a fresh interpreter for every
sample and reads the JSON object it prints as its last stdout line:

- ``t_ready``: CLOCK_MONOTONIC when the inputs were ready; the benchmark
  subtracts the moment it spawned this process to get ``setup_s``.
- ``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``outputs`` (modes run, trace).
- ``layers`` and ``spans`` (mode trace only).

In mode ``trace`` the tracer is installed right after ``import bioperad``,
so set-up is traced too, and removed before the outputs are computed.  In
the other modes the tracer module is never imported.
"""

import json
import resource
import sys
import time


def main(argv):
    name, mode, inputs = argv[0], argv[1], argv[2:]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    state = workload.setup(inputs)
    report = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode != "setup":
        t0 = time.perf_counter()
        result = workload.run(state)
        report["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.layer_metrics()
            report["spans"] = tracer.spans
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["cpu_s"] = usage.ru_utime + usage.ru_stime
        report["peak_rss_mb"] = usage.ru_maxrss / 1024
        report["outputs"] = workload.outputs(state, result)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
