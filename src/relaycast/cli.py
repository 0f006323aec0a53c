"""Command-line front end.

Subcommands::

    relaycast rate      --net net-a --plan auto --seed 0
    relaycast bound     --net net-b --certify
    relaycast simulate  --net net-c --scheme sliding --m 6 --n 8 --B 4 \
                        --trials 300 --rate-scale 0.8,1.5
    relaycast gen-net   net-b --out net-b.json

Results go to stdout (or ``--out``); diagnostics and machine-readable error
codes go to stderr; the exit status is 0 iff no error.  Rate and bound
reports are JSON; simulation tables are CSV with the config echoed in a
leading comment line and a final ``r_star`` summary row.  Re-running a
command with the same config and seed reproduces the output byte for byte,
regardless of ``--workers``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any

from .errors import ParseError, RelaycastError, SchemaError
from .nets import BUNDLED, bundled_network
from .network import NetworkSpec, load_network, whole_number
from .optimize import OptimizerOptions
from .rates import (
    CooperationPlan,
    best_report,
    degraded_capacity,
    optimize_plans,
    optimize_rate,
    ordered_cutset_bound,
    plan_from_string,
)
from .schedules import render_backward_schedule, render_sliding_schedule
from .seeds import check_seed
from .simulate import (
    blocklength_for_scale,
    check_scheme,
    simulate_backward,
    simulate_ptp,
    simulate_sliding_window,
)

CSV_HEADER = ("m,n,B,trials,scheme,rate_scale,rate,p_e,"
              "errors_total,per_terminal_errors,seed")


def _resolve_network(ref: str) -> NetworkSpec:
    if ref.strip().lower() in BUNDLED:
        return bundled_network(ref)
    path = Path(ref)
    if not path.exists():
        raise SchemaError(f"{ref!r} is neither a bundled network nor a file")
    return load_network(path.read_text())


def _optimizer_options(args) -> OptimizerOptions:
    return OptimizerOptions(certify_tol=args.certify_tol,
                            grid_step=args.grid_step)


def _finite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by None: RFC 8259 JSON
    has no Infinity or NaN.  The reports already say why a value is
    infinite: a vacuous hop shows its zero denominator, an unbounded rate
    its ``unbounded`` flag."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_payload(command: str, config: dict[str, Any],
                  result: dict[str, Any]) -> str:
    payload = {"command": command, "config": config, "result": result}
    return json.dumps(_finite(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def cmd_rate(args) -> str:
    spec = _resolve_network(args.net)
    opts = _optimizer_options(args)
    config = {
        "net": args.net, "plan": args.plan, "restarts": args.restarts,
        "seed": args.seed, "grid_step": args.grid_step,
    }
    reports = optimize_plans(spec, args.plan, opts)
    result = best_report(reports).to_dict()
    if args.plan == "auto":
        result["per_plan"] = [
            r.to_dict() if args.list_plans
            else {"plan": list(r.plan.order), "rate": r.rate}
            for r in reports]
    return _json_payload("rate", config, result)


def cmd_bound(args) -> str:
    spec = _resolve_network(args.net)
    opts = _optimizer_options(args)
    config = {
        "net": args.net, "restarts": args.restarts, "seed": args.seed,
        "certify": args.certify, "certify_tol": args.certify_tol,
        "grid_step": args.grid_step,
    }
    bound = ordered_cutset_bound(spec, opts)
    result: dict[str, Any] = {"cutset": bound.to_dict()}
    if args.certify:
        report = degraded_capacity(spec, opts, bound)
        cert = dict(report.certificate or {})
        result["achievable"] = report.to_dict()
        result["certificate"] = {
            "achievable": cert.get("achievable"),
            "bound": cert.get("bound"),
            "gap": cert.get("gap"),
            "certified": cert.get("certified"),
            "degraded_checks": {
                "channel": cert.get("degraded_channel"),
                "side_info": cert.get("degraded_side_info"),
            },
        }
    return _json_payload("bound", config, result)


def _simulate_one(spec: NetworkSpec, scheme: str, plan: CooperationPlan,
                  m: int, n: int, B: int, trials: int, args):
    if scheme == "ptp":
        return simulate_ptp(spec, m, n, args.bin_rate, args.epsilon, trials,
                            args.seed, decoder=args.decoder,
                            workers=args.workers)
    if scheme == "sliding":
        return simulate_sliding_window(spec, plan, m, n, B, args.epsilon,
                                       trials, args.seed,
                                       workers=args.workers)
    if scheme == "backward":
        return simulate_backward(spec, m, n, B, args.epsilon, trials,
                                 args.seed, bin_rate_delta=args.bin_rate_delta,
                                 workers=args.workers)
    raise SchemaError(f"unknown scheme {scheme!r}")


def _validated_ladder(ladder) -> list[dict[str, int]]:
    if not isinstance(ladder, list) or not ladder:
        raise SchemaError("ladder must be a nonempty list of points")
    out = []
    for point in ladder:
        try:
            clean = {k: whole_number(point[k], f"ladder {k}")
                     for k in ("m", "n", "B", "trials")}
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad ladder point {point!r}: {exc}") from exc
        if any(v < 1 for v in clean.values()):
            raise SchemaError(f"ladder entries must be positive: {point!r}")
        out.append(clean)
    return out


def cmd_simulate(args) -> str:
    spec = _resolve_network(args.net)
    scheme = args.scheme
    if scheme not in ("ptp", "sliding", "backward"):
        raise SchemaError(f"unknown scheme {scheme!r}")
    rate_plan = "auto" if args.plan == "auto" else plan_from_string(args.plan)
    sim_plan = CooperationPlan(tuple(range(spec.K + 2))) \
        if rate_plan == "auto" else rate_plan
    if args.dry_run:
        # the schedule the simulator runs, once its structural checks pass;
        # ptp runs the K=0, B=1 backward schedule
        check_scheme(spec, scheme, args.B, sim_plan, epsilon=args.epsilon,
                     workers=args.workers)
        if scheme == "sliding":
            return render_sliding_schedule(sim_plan.order[:-1], args.B)
        if scheme == "backward":
            return render_backward_schedule(spec.K, args.B)
        return render_backward_schedule(0, 1)
    ladder = [{"m": args.m, "n": args.n, "B": args.B, "trials": args.trials}]
    if args.ladder:
        ladder = args.ladder
        if isinstance(ladder, str):
            try:
                ladder = json.loads(ladder)
            except json.JSONDecodeError as exc:
                raise ParseError(f"--ladder is not valid JSON: {exc}") from exc
    ladder = _validated_ladder(ladder)
    scales = args.rate_scale
    try:
        if isinstance(scales, str):
            scales = scales.split(",")
        scales = [float(s) for s in (scales or [])]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad rate-scale list {args.rate_scale!r}") from exc
    # a factor whose m / factor overflows leaves no usable block length
    for s in scales:
        if not (math.isfinite(s) and s > 0
                and all(math.isfinite(p["m"] / s) for p in ladder)):
            raise SchemaError(f"rate-scale factor {s!r} must be finite and "
                              f"> 0, with m / factor finite")
    config = {
        "net": args.net, "scheme": scheme, "ladder": ladder,
        "rate_scale": scales, "epsilon": args.epsilon, "seed": args.seed,
        "plan": args.plan, "bin_rate": args.bin_rate,
        "bin_rate_delta": args.bin_rate_delta, "decoder": args.decoder,
    }
    # every point's structural errors surface before the rate search, which
    # runs once, and only after the simulations when no point needs it
    for point in ladder:
        check_scheme(spec, scheme, point["B"], sim_plan,
                     epsilon=args.epsilon, workers=args.workers)
    opts = _optimizer_options(args)
    r_star = functools.cache(
        lambda: optimize_rate(spec, rate_plan, opts).rate)
    echo = json.dumps(config, sort_keys=True, allow_nan=False)
    lines = [f"# config: {echo}", CSV_HEADER]
    for point in ladder:
        m, B, trials = point["m"], point["B"], point["trials"]
        targets = [(None, point["n"])] if not scales else [
            (s, blocklength_for_scale(m, r_star(), s)) for s in scales]
        for scale, n in targets:
            res = _simulate_one(spec, scheme, sim_plan, m, n, B, trials,
                                args)
            per_term = ";".join(f"{t}:{res.per_terminal_errors[t]}"
                                for t in sorted(res.per_terminal_errors))
            scale_cell = "" if scale is None else repr(scale)
            lines.append(
                f"{m},{n},{B},{trials},{scheme},"
                f"{scale_cell},{res.config['rate']!r},"
                f"{res.p_e!r},{res.errors_total},{per_term},{args.seed}")
    lines.append(f",,,,r_star,,{r_star()!r},,,,")
    return "\n".join(lines) + "\n"


def cmd_gen_net(args) -> str:
    spec = bundled_network(args.name)
    return json.dumps(spec.to_document(), sort_keys=True) + "\n"


def parse_report(text: str) -> dict[str, Any]:
    """Parse an emitted report (JSON or CSV) back into config + results."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    config: dict[str, Any] = {}
    rows = []
    r_star = None
    header: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("# config:"):
            config = json.loads(line[len("# config:"):])
        elif line.startswith("#") or not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            row = dict(zip(header, cells))
            if row.get("scheme") == "r_star":
                r_star = float(row["rate"])
            else:
                rows.append(row)
    if header is None:
        raise ParseError("no CSV header found")
    return {"config": config, "rows": rows, "r_star": r_star}


def build_parser(config: dict[str, Any] | None = None
                 ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycast",
        description="Rates, bounds and protocol simulation for relay "
                    "networks with side information")
    sub = parser.add_subparsers(dest="command", required=True)
    config = config or {}

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="JSON file of default values for any flag")
        p.add_argument("--net", required="net" not in config,
                       help="bundled network name or JSON document path")
        p.add_argument("--plan", default="auto",
                       help='"auto" or comma list like "0,1,3"')
        p.add_argument("--restarts", type=int, default=16)
        p.add_argument("--certify-tol", type=float, default=2e-3)
        p.add_argument("--grid-step", type=float, default=None,
                       help="use the exhaustive simplex grid oracle")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="threads for simulation trials")
        p.add_argument("--out", default=None, help="write results to a file")

    p_rate = sub.add_parser("rate", help="achievable-rate report")
    add_common(p_rate)
    p_rate.add_argument("--list-plans", action="store_true",
                        help="report every candidate plan's optimum")
    p_rate.set_defaults(fn=cmd_rate)

    p_bound = sub.add_parser("bound", help="ordered cut-set bound report")
    add_common(p_bound)
    p_bound.add_argument("--certify", action="store_true",
                         help="also certify the degraded capacity")
    p_bound.set_defaults(fn=cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo protocol simulation")
    add_common(p_sim)
    p_sim.add_argument("--scheme", choices=("ptp", "sliding", "backward"),
                       default="sliding")
    p_sim.add_argument("--m", type=int, default=6)
    p_sim.add_argument("--n", type=int, default=8)
    p_sim.add_argument("--B", type=int, default=4)
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--epsilon", type=float, default=3.0)
    p_sim.add_argument("--rate-scale", default=None,
                       help='comma list of factors of r*, e.g. "0.8,1.5"')
    p_sim.add_argument("--bin-rate", type=float, default=None,
                       help="ptp bin rate R in bits/symbol (default: none)")
    p_sim.add_argument("--bin-rate-delta", type=float, default=None,
                       help="backward bin-rate slack (default 2/m)")
    p_sim.add_argument("--decoder", choices=("joint", "separate"),
                       default="joint")
    p_sim.add_argument("--ladder", default=None,
                       help='JSON list of {"m","n","B","trials"} points')
    p_sim.add_argument("--dry-run", action="store_true",
                       help="emit the encoding schedule table only")
    p_sim.set_defaults(fn=cmd_simulate)

    p_gen = sub.add_parser("gen-net", help="emit a bundled network document")
    p_gen.add_argument("name", help=f"one of {sorted(BUNDLED)}")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen_net)
    if config:
        for p in (p_rate, p_bound, p_sim):
            p.set_defaults(**{a.dest: _config_value(a, config[a.dest])
                              for a in p._actions if a.dest in config})
    return parser


def _config_value(action: argparse.Action, value: Any) -> Any:
    """A ``--config`` value for a flag, as the flag's ``type`` reads it.

    argparse converts string defaults itself; other values of a typed flag
    must be numbers of that type (booleans and fractional counts are
    rejected rather than truncated)."""
    if action.type is None or value is None or isinstance(value, str):
        return value
    name = action.option_strings[0]
    if action.type is int:
        return whole_number(value, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return action.type(value)


def _load_config_file(argv: list[str] | None) -> dict[str, Any]:
    """Load the JSON defaults of ``--config PATH`` in argv, the flag read
    by argparse itself, so that every spelling it accepts counts."""
    pre = argparse.ArgumentParser(prog="relaycast", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise SchemaError(f"config file {path!r} not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise SchemaError("config file must hold a JSON object")
    return loaded


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser(_load_config_file(argv)).parse_args(argv)
        if hasattr(args, "seed"):
            # the rate engine reads neither flag, but the config echoes both
            check_seed(args.seed, "--seed")
            if args.restarts < 1:
                raise SchemaError(
                    f"--restarts must be >= 1, got {args.restarts}")
        # a config line is strict JSON, whichever scheme reads the rates
        for flag in ("bin_rate", "bin_rate_delta"):
            if not math.isfinite(getattr(args, flag, None) or 0.0):
                raise SchemaError(f"--{flag.replace('_', '-')} must be finite")
        text = args.fn(args)
    except RelaycastError as exc:
        err = {"error_code": exc.code, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
