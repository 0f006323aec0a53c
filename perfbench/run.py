"""relaycast benchmark: run one workload (or all) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rate-auto --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the run
length whose spread the benchmark was tuned for.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median, over six fresh processes, of the time from
  process start until the workload's first timed call can be issued.
* ``pass_s``: median wall seconds of one pass over the workload's
  operations.  On rate-auto a pass is one CLI report
  (report_s); on sim-* it is both simulation points, and
  trials_per_s = trials per pass / pass_s.
* ``peak_rss_mb``: the workload process's peak resident memory.

Passes repeat at the same seed for about ``--seconds`` (at least three;
a rate-auto report takes 8-10 s on a 2-vCPU Xeon VM), so every run also
checks that the outputs repeat byte for byte.

``--trace 1`` runs one untraced pass, then one pass with every layer's
entry points wrapped (see spans.py), and reports the per-layer metrics of
the traced pass plus the tracing overhead (traced minus untraced).  The
traced outputs must equal the untraced ones byte for byte.

Every operation's output is checked (see workloads.py).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record, with the machine and the exact counts, goes to
``.perfbench_out/`` (or ``--out``).  The exit status is 1 when any check
failed and 2 when the program cannot be loaded, in which case no result
is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = wl.ROOT / ".perfbench_out"
SETUP_PROBES = 6
MIN_PASSES = 3


def machine() -> dict:
    """What a result must be read with: a faster box is not a faster code."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(name: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the workload's
    set-up is done, once per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise wl.SetupError(f"set-up probe for {name} failed")
        times.append(elapsed)
    return times


def check_pass(ops: list, first: list | None,
               first_is: str = "the first pass") -> list[list[str]]:
    """Problems per operation, including an output that differs from the
    same operation in ``first`` (same seed)."""
    problems = []
    for i, op in enumerate(ops):
        found = list(op.problems)
        if first is not None and (i >= len(first)
                                  or first[i].output != op.output):
            found.append(f"{op.label}: output differs from {first_is}")
        problems.append(found)
    return problems


def timed_pass(work: wl.Workload, state) -> tuple[list, float]:
    t0 = time.perf_counter()
    ops = work.run_pass(state)
    return ops, time.perf_counter() - t0


def measure(work: wl.Workload, state, seconds: float) -> dict:
    """Untraced passes at one seed for about ``seconds``: at least
    MIN_PASSES, and no pass starts that would end more than half a pass
    after the deadline."""
    durations, problems, first = [], [], None
    start = time.perf_counter()
    while True:
        ops, dt = timed_pass(work, state)
        durations.append(dt)
        problems += check_pass(ops, first)
        first = first or ops
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_PASSES and elapsed + dt / 2 > seconds:
            break
    return {"durations": durations, "problems": problems, "ops": first}


def traced(work: wl.Workload, state, seed: int) -> dict:
    """One untraced and one traced pass; per-layer metrics and overhead."""
    ops_plain, dt_plain = timed_pass(work, state)
    problems = check_pass(ops_plain, None)
    rss_plain = peak_rss_mb()

    t0 = time.perf_counter()
    work.setup(seed)
    setup_plain = time.perf_counter() - t0
    rc = wl.load_relaycast()
    with spans.installed(spans.Tracer(), rc):
        t0 = time.perf_counter()
        state_traced = work.setup(seed)
        setup_traced = time.perf_counter() - t0

    tracer = spans.Tracer()
    with spans.installed(tracer, rc):
        ops_traced, dt_traced = timed_pass(work, state_traced)
    problems += check_pass(ops_traced, ops_plain, "the untraced pass")
    tracer.write(OUT_DIR / f"spans-{work.name}.npz")
    layers = tracer.layer_metrics(work.trials_per_pass)
    layers["trace.overhead_pass_s"] = dt_traced - dt_plain
    layers["trace.overhead_setup_s"] = setup_traced - setup_plain
    layers["trace.overhead_rss_mb"] = peak_rss_mb() - rss_plain
    return {"durations": [dt_plain], "traced_s": dt_traced,
            "problems": problems, "ops": ops_plain, "layers": layers}


def run_one(args) -> int:
    work = wl.WORKLOADS[args.workload]
    try:
        wl.load_relaycast()
    except (wl.SetupError, ImportError) as exc:
        print(f"cannot load relaycast: {exc}", file=sys.stderr)
        return 2
    host = machine()
    # half the set-up probes before the passes and half after, so that the
    # median spans the run rather than one moment of the machine's load
    try:
        setups = setup_times(work.name, args.seed, SETUP_PROBES // 2)
        state = work.setup(args.seed)
        if args.trace:
            result = traced(work, state, args.seed)
        else:
            result = measure(work, state, args.seconds)
        setups += setup_times(work.name, args.seed, SETUP_PROBES // 2)
    except (wl.SetupError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    problems = [p for op in result["problems"] for p in op]
    attempted = len(result["problems"])
    failed = sum(1 for op in result["problems"] if op)
    durations = result["durations"]
    e2e = {"setup_s": statistics.median(setups),
           "pass_s": statistics.median(durations),
           "peak_rss_mb": peak_rss_mb()}
    if args.trace:
        units = {m[0]: m[1] for m in spans.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": wl.END_TO_END[k]}
                   for k, v in e2e.items()}

    record = {
        "workload": work.name, "why": work.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": host,
        "setup_samples_s": setups, "pass_samples_s": durations,
        "end_to_end": e2e, "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "outputs": {op.label: {"sha256": _digest(op.output),
                               "counts": op.counts, "trials": op.trials}
                    for op in result["ops"]},
    }
    record["notes"] = {"setup_s": f"median of {len(setups)}",
                       "pass_s": f"median of {len(durations)}"}
    if args.trace:
        record["notes"].update({m[0]: m[3] for m in spans.LAYER_METRICS
                                if m[3] in ("exact", "computed")})
        if work.trials_per_pass:
            record["notes"]["simulate.trial_us"] = \
                f"median of {work.trials_per_pass}"
            record["notes"]["simulate.trial_us_tail"] = \
                spans.tail_label(work.trials_per_pass)
    if work.trials_per_pass:
        record["trials_per_s"] = work.trials_per_pass / e2e["pass_s"]
    if args.trace:
        record["traced_pass_s"] = result["traced_s"]
    out = Path(args.out) if args.out else \
        OUT_DIR / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    _print_human(record)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _digest(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


def _print_human(rec: dict) -> None:
    host = rec["machine"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}"
          f" | {host['cpu']}, nproc {host['nproc']}, python {host['python']},"
          f" numpy {host['numpy']}, loadavg {host['loadavg'][0]:.2f}")
    for name, m in rec["metrics"].items():
        note = f" ({rec['notes'][name]})" if name in rec["notes"] else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if "trials_per_s" in rec:
        print(f"  trials_per_s = {rec['trials_per_s']:.6g} 1/s")
    print(f"  failed_frac = {rec['failed_frac']:.6g} "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for problem in rec["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2        # a workload could not start: no result
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"][name] = res["metrics"]
    print(json.dumps(summary))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="record path (default: .perfbench_out/...)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        wl.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0
    if args.seconds is None:
        spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
