"""The benchmark's own checks, run from the root of a checkout.

``contract``
    BENCHMARK.json names exactly the workloads, metrics, units and
    directions that run.py and spans.py produce.

``determinism [--workload W] [--seed S]``
    Two traced invocations at seed S must give identical outputs (report
    bytes, p_e and per-terminal counts) and identical exact counts; each
    traced pass must reproduce its untraced pass byte for byte.  A third
    invocation at a random seed never used while the benchmark was written
    must pass its checks (it is printed, so ``run.py --seed`` can repeat
    it); the rate workload ignores the seed, so for it this is one more
    repeat.

``spread [--workload W] [--runs N] [--baseline PATH]``
    N untraced runs at seeds 0, 1, ...; for each end-to-end metric the
    quartile spread (Q3 - Q1, from ``statistics.quantiles(n=4)``) as a
    share of the median.  A spread above the metric's bound fails, except
    for ``setup_s``, whose median is gated but not its spread; each line
    also says whether the spread is below a third of the bound, the aim
    for a steady benchmark.  ``--baseline`` also writes the medians,
    quartiles, machine and one traced run's per-layer metrics to PATH.

``compare A B``
    Two baselines written by ``spread --baseline``, from two sets of runs
    of the same code: every end-to-end median of B must lie within the
    metric's bound of A's (either way), and every exact count must match
    bit for bit.

Every subcommand exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import secrets
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = wl.ROOT / ".perfbench_out" / "check"
SPEC = wl.ROOT / "BENCHMARK.json"

#: Seeds used while the benchmark and its reference were written.
USED_SEEDS = set(range(0, 64)) | set(range(1000, 1020))


def benchmark_spec() -> dict:
    return json.loads(SPEC.read_text())


def invoke(workload: str, seed: int, trace: int, tag: str,
           seconds: int | None = None) -> dict:
    """Run one workload in a fresh process; return its record."""
    out = OUT_DIR / f"{workload}-{tag}.json"
    seconds = seconds or benchmark_spec()["run_seconds"]
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode == 2:
        raise SystemExit(f"{workload}: run could not start")
    record = json.loads(out.read_text())
    record["exit_code"] = proc.returncode
    return record


def cmd_contract(args) -> int:
    spec = benchmark_spec()
    want_e2e = list(wl.END_TO_END.items())
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != want_e2e:
        problems.append("end_to_end differs from workloads.END_TO_END")
    if any(m["better"] != "lower" for m in spec["end_to_end"]):
        problems.append("every end-to-end metric is lower-is-better")
    want_layers = [(m[0], m[1], m[2]) for m in spans.LAYER_METRICS]
    have_layers = [(m["name"], m["unit"], m["better"])
                   for m in spec["per_layer"]]
    if have_layers != want_layers:
        problems.append("per_layer differs from spans.LAYER_METRICS")
    want_work = [(w.name, w.why) for w in wl.WORKLOADS.values()]
    if [(w["name"], w["why"]) for w in spec["workloads"]] != want_work:
        problems.append("workloads differ from workloads.WORKLOADS")
    for problem in problems:
        print(f"CONTRACT: {problem}")
    print("contract ok" if not problems else "contract FAILED")
    return 1 if problems else 0


def _fingerprint(record: dict) -> dict:
    exact = {k: record["metrics"][k]["value"] for k in spans.EXACT}
    return {"outputs": record["outputs"], "exact": exact}


def cmd_determinism(args) -> int:
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    fresh = None
    while fresh is None or fresh in USED_SEEDS:
        fresh = secrets.randbelow(2 ** 31)
    ok = True
    for name in names:
        first = invoke(name, args.seed, 1, "det-a")
        second = invoke(name, args.seed, 1, "det-b")
        other = invoke(name, fresh, 1, "det-fresh")
        same = _fingerprint(first) == _fingerprint(second)
        clean = all(r["exit_code"] == 0 and not r["problems"]
                    for r in (first, second, other))
        ok &= same and clean
        exact = _fingerprint(first)["exact"]
        print(f"{name}: seed {args.seed} twice "
              f"{'identical' if same else 'DIFFERS'}; fresh seed {fresh} "
              f"{'passes' if other['exit_code'] == 0 else 'FAILS'}; "
              f"checks {'clean' if clean else 'FAILED'}")
        print("  exact: " + ", ".join(f"{k}={v}" for k, v in exact.items()
                                       if v))
        for r in (first, second, other):
            for problem in r["problems"]:
                print(f"  seed {r['seed']}: {problem}")
    return 0 if ok else 1


def cmd_spread(args) -> int:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    baseline = {"run_seconds": spec["run_seconds"], "runs": args.runs,
                "seeds": list(range(args.runs)), "workloads": {}}
    for name in names:
        records = [invoke(name, seed, 0, f"spread-{seed}")
                   for seed in range(args.runs)]
        entry = {"machine": records[0]["machine"], "end_to_end": {}}
        print(f"{name} ({args.runs} runs, loadavg at start "
              f"{records[0]['machine']['loadavg'][0]:.2f})")
        for metric, bound in bounds.items():
            values = [r["end_to_end"][metric] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = metric == "setup_s" or spread <= bound
            ok &= within
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values}
            print(f"  {metric}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {bound}) {verdict}")
        failed = sum(r["failed"] for r in records)
        ok &= failed == 0
        print(f"  failed operations: {failed} of "
              f"{sum(r['attempted'] for r in records)}")
        if args.baseline:
            traced = invoke(name, 0, 1, "baseline-trace")
            entry["trace_seed"] = 0
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["trials_per_s"] = statistics.median(
                r["trials_per_s"] for r in records) \
                if "trials_per_s" in records[0] else None
        baseline["workloads"][name] = entry
    if args.baseline:
        Path(args.baseline).write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    first, second = (json.loads(Path(p).read_text())
                     for p in (args.first, args.second))
    ok = True
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from {args.second}")
            ok = False
            continue
        print(f"{name}")
        for metric, ma in a["end_to_end"].items():
            mb = b["end_to_end"][metric]
            shift = mb["median"] / ma["median"] - 1
            agree = abs(shift) <= ma["bound"]
            ok &= agree
            print(f"  {metric}: medians {ma['median']:.6g} and "
                  f"{mb['median']:.6g}, {shift:+.4f} (bound {ma['bound']}) "
                  f"{'agree' if agree else 'DISAGREE'}")
        exact_a = {k: a["per_layer"][k] for k in spans.EXACT}
        exact_b = {k: b["per_layer"][k] for k in spans.EXACT}
        differ = [k for k in spans.EXACT if exact_a[k] != exact_b[k]]
        ok &= not differ
        print(f"  exact counts: {'identical' if not differ else 'DIFFER: '}"
              + ", ".join(differ))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("contract").set_defaults(fn=cmd_contract)
    det = sub.add_parser("determinism")
    det.add_argument("--workload", default="all")
    det.add_argument("--seed", type=int, default=0)
    det.set_defaults(fn=cmd_determinism)
    spr = sub.add_parser("spread")
    spr.add_argument("--workload", default="all")
    spr.add_argument("--runs", type=int, default=10)
    spr.add_argument("--baseline", default=None)
    spr.set_defaults(fn=cmd_spread)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    cmp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
