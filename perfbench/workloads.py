"""The benchmark's workloads: set-up, one timed pass, and output checks.

A workload's set-up is what a user pays before the first timed call:
importing ``relaycast``, building the network, and computing the
closed-form oracles and block lengths.  One *pass* runs the workload's
operations once; an operation is one CLI report or one simulation point.
Every operation is checked: a failed check never stops the run, it is
counted into ``failed``.

The rate workload goes through the CLI, because that is the command
users run.  The simulators are called directly: ``relaycast simulate``
always re-runs ``optimize_rate`` for its ``r_star`` row, which would put
the rate engine into the simulation workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metrics (measured with tracing off) and their units.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The program under test cannot be loaded from this checkout."""


def load_relaycast():
    """Import ``relaycast`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "relaycast" / "__init__.py").is_file():
        raise SetupError(f"no relaycast package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import relaycast
    if Path(relaycast.__file__).resolve().parent != (SRC / "relaycast").resolve():
        raise SetupError(f"relaycast was imported from {relaycast.__file__}")
    return relaycast


def h2(p: float) -> float:
    """Binary entropy in bits (independent of the package under test)."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def conv(a: float, b: float) -> float:
    """Binary convolution of two flip probabilities."""
    return a * (1 - b) + (1 - a) * b


@dataclass
class OpResult:
    """One operation's output and the checks it failed (empty: passed)."""

    label: str
    output: str
    problems: list[str] = field(default_factory=list)
    trials: int = 0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int], Any]
    run_pass: Callable[[Any], list[OpResult]]
    trials_per_pass: int = 0


# ---------------------------------------------------------------------------
# Rate engine through the CLI
# ---------------------------------------------------------------------------

RATE_AUTO_ORACLE = 1 / h2(conv(conv(0.1, 0.2), 0.1))          # 1.12252


#: The optimizer seed of the rate workload, which ignores the workload seed.
#: The optimizer's work depends strongly on it: ``rate --plan auto`` on
#: net-d makes 23,200 objective calls at seed 0, 20,672 at seed 4 and 24,064
#: at seed 7; ``bound --certify`` on net-b makes 30,064 at seed 0 but 140,040
#: at seed 2.  A per-run seed would therefore time the seed rather than the
#: code.  Seed 0 is the CLI default and the run ROADMAP pins its starting
#: points to.
OPTIMIZER_SEED = 0


def _cli_setup(argv: list[str]) -> Callable[[int], Any]:
    def setup(seed: int) -> dict[str, Any]:
        load_relaycast()
        import relaycast.cli as cli
        return {"cli": cli, "argv": argv + ["--seed", str(OPTIMIZER_SEED)]}
    return setup


def _raised(label: str) -> OpResult:
    """An operation that raised: the run goes on and counts it as failed."""
    traceback.print_exc()
    return OpResult(label, "", [f"{label} raised "
                                f"{traceback.format_exc().splitlines()[-1]}"])


def _cli_pass(check: Callable[[dict[str, Any]], list[str]]):
    def run_pass(state: dict[str, Any]) -> list[OpResult]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = state["cli"].main(list(state["argv"]))
        except Exception:
            return [_raised("report")]
        text = buf.getvalue()
        if code != 0:
            return [OpResult("report", text, [f"exit code {code}"])]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [OpResult("report", text, [f"report is not JSON: {exc}"])]
        return [OpResult("report", text, check(payload["result"]))]
    return run_pass


def _check_rate_auto(result: dict[str, Any]) -> list[str]:
    rate = result.get("rate")
    if not isinstance(rate, float) or abs(rate - RATE_AUTO_ORACLE) > 1e-3:
        return [f"rate {rate} not within 1e-3 of {RATE_AUTO_ORACLE:.6f}"]
    return []


# ---------------------------------------------------------------------------
# Simulators, called directly
# ---------------------------------------------------------------------------

def _reference() -> dict[str, Any]:
    return json.loads(REFERENCE.read_text())


def sim_counts(res) -> dict[str, int]:
    """A point's error total and per-terminal error counts."""
    counts = {"errors_total": res.errors_total}
    counts.update({f"terminal_{t}": e
                   for t, e in sorted(res.per_terminal_errors.items())})
    return counts


def _sim_op(label: str, res, trials: int, bands: dict[str, Any],
            clause) -> OpResult:
    """Check one point: trial count, binomial bands (see make_reference.py)
    and the acceptance clause, if any."""
    problems = []
    if res.trials != trials:
        problems.append(f"{label} ran {res.trials} trials, asked {trials}")
    counts = sim_counts(res)
    for key, (lo, hi) in bands.items():
        value = counts.get(key)
        if value is None or not lo <= value <= hi:
            problems.append(f"{label} {key}={value} outside band [{lo}, {hi}]")
    if clause is not None and not clause[1](res.p_e):
        problems.append(f"{label} fails {clause[0]}: p_e={res.p_e}")
    return OpResult(label, json.dumps(res.to_dict(), sort_keys=True),
                    problems, res.trials, counts)


# Each point: (label, rate-scale or bin rate, acceptance clause or None).
# Only the clauses that hold at the seed commit are asserted: the
# below-threshold clause of criterion 5 and the binned clause of
# criterion 6 fail by design at these block lengths and are left out.
BACKWARD = {"net": "net-c", "m": 6, "B": 2, "epsilon": 4.0, "trials": 300,
            "workers": 1,
            "points": [("scale=0.8", 0.8, None),
                       ("scale=1.5", 1.5, ("p_e >= 0.3",
                                           lambda p: p >= 0.3))]}
PTP = {"net": "net-a-noiseless", "m": 12, "n": 24, "epsilon": 3.0,
       "trials": 400, "decoder": "joint", "workers": 2,
       "points": [("R=1.0", 1.0, ("p_e < 0.05", lambda p: p < 0.05)),
                  ("R=h2(0.25)+2/m", h2(0.25) + 2 / 12, None)]}


def backward_points(rc) -> list[tuple[str, int, Any]]:
    """(label, block length n, clause) of each sim-backward point."""
    # closed form of r* for net-c, as in the acceptance suite
    r_star = min(1 / h2(0.1), 1 / h2(conv(0.1, 0.2)))
    return [(label, rc.blocklength_for_scale(BACKWARD["m"], r_star, scale),
             clause) for label, scale, clause in BACKWARD["points"]]


def run_backward(rc, spec, n: int, seed: int):
    cfg = BACKWARD
    return rc.simulate_backward(spec, m=cfg["m"], n=n, B=cfg["B"],
                                epsilon=cfg["epsilon"], trials=cfg["trials"],
                                seed=seed, workers=cfg["workers"])


def run_ptp(rc, spec, R: float, seed: int):
    cfg = PTP
    return rc.simulate_ptp(spec, m=cfg["m"], n=cfg["n"], R=R,
                           epsilon=cfg["epsilon"], trials=cfg["trials"],
                           seed=seed, decoder=cfg["decoder"],
                           workers=cfg["workers"])


def _sim_setup(name: str, net: str, points_of) -> Callable[[int], Any]:
    def setup(seed: int) -> dict[str, Any]:
        rc = load_relaycast()
        bands = _reference()[name]
        points = [(label, arg, clause, bands[label]["bands"])
                  for label, arg, clause in points_of(rc)]
        return {"rc": rc, "spec": rc.bundled_network(net), "seed": seed,
                "points": points}
    return setup


def _sim_pass(run_point, trials: int):
    def run_pass(state: dict[str, Any]) -> list[OpResult]:
        ops = []
        for label, arg, clause, bands in state["points"]:
            try:
                res = run_point(state["rc"], state["spec"], arg,
                                state["seed"])
            except Exception:
                ops.append(_raised(label))
                continue
            ops.append(_sim_op(label, res, trials, bands, clause))
        return ops
    return run_pass


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rate-auto",
        "rate engine alone: rate --plan auto on net-d, the largest bundled "
        "input joint (8 cells, 5 plans, 16 restarts); simulators idle",
        _cli_setup(["rate", "--net", "net-d", "--plan", "auto"]),
        _cli_pass(_check_rate_auto)),
    Workload(
        "sim-backward",
        "backward decoding at criterion 5's points (net-c, m=6, n=7 and 3): "
        "many small codebook slices, serial; rate engine idle",
        _sim_setup("sim-backward", BACKWARD["net"], backward_points),
        _sim_pass(run_backward, BACKWARD["trials"]),
        trials_per_pass=BACKWARD["trials"] * len(BACKWARD["points"])),
    Workload(
        "sim-ptp",
        "point-to-point at criterion 6's points (m=12, n=24): one 4096x24 "
        "table and check_batch at C=4096 per trial, on 2 pool threads",
        _sim_setup("sim-ptp", PTP["net"], lambda rc: PTP["points"]),
        _sim_pass(run_ptp, PTP["trials"]),
        trials_per_pass=PTP["trials"] * len(PTP["points"])),
)}
