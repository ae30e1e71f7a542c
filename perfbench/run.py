"""Outside-in benchmark of bioperad.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark is a closed loop with a single
client and no threads: it starts one cold ``child.py`` process at a time,
waits for it to exit, and starts the next while one more, as long as the
last, still fits in ``--seconds`` (at least one is always run).  Untraced
runs also start set-up-only processes, spread over the run: a few before
the first full process, two after each, and, if that gave fewer than
``MIN_SETUP_SAMPLES`` set-up samples, more at the end.  So ``setup_s`` is a
median over many samples taken in different parts of the run, even for a
workload whose single process outlasts ``--seconds``.

Every process's outputs are compared with ``golden.json``; a mismatch is a
failed gate.  The last stdout line is the result object; the line before it
is a detail record (environment, sample counts, quartiles, fail rate, every
sample).  With ``--trace 1`` the loop
alternates untraced and traced processes and reports the per-layer metrics
listed in BENCHMARK.json; the traced processes' spans go to
``.bench_build/trace``.  README.md documents every metric and file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES_BEFORE = 5
PROBES_PER_ROUND = 2
MIN_SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def monotonic():
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # child's t_ready can be compared with the moment it was spawned
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # bytecode is cached, as in an installed package, but outside src/
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build", "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # fixed string hashing, so that call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, env, workload, mode, inputs):
    """Run one cold child process to completion; returns its report with
    setup_s added."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, mode,
           *inputs]
    t_spawn = monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode}: no result within "
                          f"{CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    return report


def load_1min():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment(root):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_commit": commit}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(root, workload, inputs, seconds, trace):
    """The closed loop.  Returns (setup samples, untraced, traced)."""
    env = child_env(root)
    # untimed: fills the bytecode cache on the first run in a checkout
    spawn(root, env, workload, "setup", inputs)
    start = monotonic()
    modes = ["run", "trace"] if trace else ["run"]
    untraced, traced, setups = [], [], []

    def probe(count):
        for _ in range(0 if trace else count):
            setups.append(spawn(root, env, workload, "setup",
                                inputs)["setup_s"])

    probe(PROBES_BEFORE)
    while True:
        t0 = monotonic()
        for mode in modes:
            report = spawn(root, env, workload, mode, inputs)
            (traced if mode == "trace" else untraced).append(report)
            if mode == "run":
                setups.append(report["setup_s"])
        probe(PROBES_PER_ROUND)
        now = monotonic()
        if now + (now - t0) > start + seconds:
            break
    probe(MIN_SETUP_SAMPLES - len(setups))
    return setups, untraced, traced


def per_layer(names, untraced, traced):
    samples = {}
    for name in names:
        if name == "trace_overhead_s":
            over = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
            samples[name] = [over]
        elif name == "cpu_s":
            samples[name] = [r["cpu_s"] for r in untraced]
        else:
            samples[name] = [r["layers"][name] for r in traced]
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bioperad",
                                       "__init__.py")):
        print("perfbench: run from the repository root; src/bioperad is "
              "missing", file=sys.stderr)
        return 2
    sys.pycache_prefix = os.path.join(root, ".bench_build", "pycache")
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS, gate
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[args.workload]

    build = os.path.join(root, ".bench_build", "inputs")
    os.makedirs(build, exist_ok=True)
    inputs = WORKLOADS[args.workload].prepare(args.seed, build)

    load_before = load_1min()
    try:
        setups, untraced, traced = measure(root, args.workload, inputs,
                                           args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    load_after = load_1min()

    attempted = failed = 0
    mismatches = []
    for report in untraced + traced:
        a, f, m = gate(report["outputs"], golden)
        attempted, failed = attempted + a, failed + f
        mismatches.extend(m[:10 - len(mismatches)])

    if args.trace:
        specs = bench["per_layer"]
        samples = per_layer([m["name"] for m in specs], untraced, traced)
    else:
        specs = bench["end_to_end"]
        samples = {"wall_s": [r["wall_s"] for r in untraced],
                   "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"]} for m in specs}

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "processes": {"setup_only": len(setups) - len(untraced),
                            "untraced": len(untraced),
                            "traced": len(traced)},
              "samples": {k: len(v) for k, v in samples.items()},
              "quartiles": {k: quartiles(v) for k, v in samples.items()},
              "fail_rate": failed / attempted if attempted else None,
              "mismatches": mismatches,
              "values": samples,
              "env": {**environment(root), "load_1min_before": load_before,
                      "load_1min_after": load_after}}
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        trace_dir = os.path.join(root, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, tag + ".json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": detail["env"],
                       "processes": [{"wall_s": r["wall_s"],
                                      "layers": r["layers"],
                                      "spans": r["spans"]} for r in traced]},
                      fh, indent=1)

    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
