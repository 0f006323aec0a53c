"""Command-line harness: reports, round-trips, determinism, error codes."""

import json
from pathlib import Path

import pytest

import relaycast as rc
from relaycast.cli import main, parse_report
from relaycast.nets import dsbs_chain

from conftest import conv, h2, ternary_relay_net

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _k3_document(tmp_path) -> str:
    """Path of a K=3 network document: four noiseless parallel links."""
    import numpy as np
    ch = np.zeros((2, 2, 2, 2, 1) + (2, 2, 2, 2))
    for idx in np.ndindex((2, 2, 2, 2)):
        ch[idx + (0,) + idx] = 1.0
    doc = {
        "K": 3, "L": 1,
        "input_alphabets": [2, 2, 2, 2, 1],
        "output_alphabets": [2, 2, 2, 2],
        "source_alphabets": [2] * 5,
        "channel": ch.reshape(-1).tolist(),
        "sources": [1 / 32] * 32,
    }
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRate:
    def test_net_a_report(self, capsys):
        code, out, _ = run_cli(["rate", "--net", "net-a", "--restarts", "4"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        want = (1 - h2(0.1)) / h2(0.25)
        assert payload["result"]["rate"] == pytest.approx(want, abs=1e-3)
        assert payload["result"]["plan"] == [0, 1]

    def test_auto_lists_five_plans_for_two_relays(self, capsys):
        code, out, _ = run_cli(
            ["rate", "--net", "net-d", "--restarts", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        plans = [r["plan"] for r in payload["result"]["per_plan"]]
        assert plans == [[0, 3], [0, 1, 3], [0, 2, 3],
                         [0, 1, 2, 3], [0, 2, 1, 3]]
        # full per-plan reports on request
        code, out, _ = run_cli(
            ["rate", "--net", "net-d", "--restarts", "2", "--list-plans"],
            capsys)
        payload = json.loads(out)
        assert all("per_hop" in r for r in payload["result"]["per_plan"])

    def test_auto_agrees_with_library(self, net_d, capsys):
        code, out, _ = run_cli(
            ["rate", "--net", "net-d", "--restarts", "2"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        per_plan = result.pop("per_plan")
        opts = rc.OptimizerOptions()
        assert result == rc.optimize_rate(net_d, "auto", opts).to_dict()
        reports = rc.optimize_plans(net_d, "auto", opts)
        assert per_plan == [{"plan": list(r.plan.order), "rate": r.rate}
                            for r in reports]

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"K": 0, "L": 1}))
        code, out, err = run_cli(["rate", "--net", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("step", ["0", "nan", "-0.5", "inf", "1.5",
                                      "1e-320"])
    def test_bad_grid_step(self, step, capsys):
        code, out, err = run_cli(
            ["rate", "--net", "net-a", f"--grid-step={step}"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    def test_parse_error_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(["rate", "--net", str(bad)], capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "ParseError"


class TestBound:
    def test_certified_net_b(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--net", "net-b", "--certify", "--restarts", "4"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        cert = payload["result"]["certificate"]
        assert cert["certified"] is True
        assert abs(cert["gap"]) <= 2e-3
        assert cert["degraded_checks"] == {"channel": True, "side_info": True}

    def test_certify_searches_the_bound_once(self, monkeypatch, capsys):
        import relaycast.cli as cli
        import relaycast.rates as rates
        calls = []
        original = rates.ordered_cutset_bound

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(rates, "ordered_cutset_bound", counted)
        monkeypatch.setattr(cli, "ordered_cutset_bound", counted)
        code, _, _ = run_cli(
            ["bound", "--net", "net-b", "--certify", "--restarts", "2"],
            capsys)
        assert code == 0
        assert len(calls) == 1

    def test_not_degraded_gate(self, tmp_path, capsys):
        spec = rc.bundled_network("net-b")
        import numpy as np
        probs = np.zeros((2, 2, 2))
        for s0 in range(2):
            for s1 in range(2):
                probs[s0, s1, s0] = 0.25
        doc = spec.to_document()
        doc["sources"] = probs.reshape(-1).tolist()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["bound", "--net", str(path), "--certify", "--restarts", "2"],
            capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "NotDegraded"

    def test_k0_bound_equals_rate(self, capsys):
        code, out, _ = run_cli(["bound", "--net", "net-a", "--restarts", "4"],
                               capsys)
        payload = json.loads(out)
        want = (1 - h2(0.1)) / h2(0.25)
        assert payload["result"]["cutset"]["bound"] == pytest.approx(
            want, abs=1e-3)


@pytest.mark.parametrize("command", [
    ["rate", "--plan", "0,1,2"],
    ["bound", "--certify"],
])
def test_reports_are_strict_json(command, tmp_path, capsys):
    # S1 = S0 makes hop 1 vacuous: its ratio is infinite, printed as null
    doc = rc.bundled_network("net-b").to_document()
    doc["sources"] = dsbs_chain([0.0, 0.2]).reshape(-1).tolist()
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(command + ["--net", str(path), "--restarts", "2"],
                           capsys)
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    payload = json.loads(out, parse_constant=reject)
    hops = payload["result"]["per_hop"] if command[0] == "rate" \
        else payload["result"]["achievable"]["per_hop"]
    assert hops[0]["denominator"] == 0.0 and hops[0]["ratio"] is None


@pytest.mark.parametrize("command", [["rate"], ["bound"]])
def test_random_net_reports_are_strict_json(command, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(ternary_relay_net(0).to_document()))
    code, out, _ = run_cli(command + ["--net", str(path), "--restarts", "2"],
                           capsys)
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    payload = json.loads(out, parse_constant=reject)
    assert payload["command"] == command[0]


#: A small run of each scheme, on a network it takes.
SCHEME_RUNS = {
    scheme: ["simulate", "--net", net, "--scheme", scheme, "--m", "4",
             "--n", "6", "--B", "2", "--trials", "2"]
    for scheme, net in (("ptp", "net-a"), ("sliding", "net-c"),
                        ("backward", "net-c"))}


@pytest.mark.parametrize("scheme", sorted(SCHEME_RUNS))
def test_simulate_config_line_is_strict_json(scheme, capsys):
    code, out, _ = run_cli(SCHEME_RUNS[scheme], capsys)
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("# config:")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    config = json.loads(line[len("# config:"):], parse_constant=reject)
    assert config["scheme"] == scheme


class TestSimulate:
    def test_csv_round_trip(self, capsys):
        args = ["simulate", "--net", "net-c", "--scheme", "sliding",
                "--m", "5", "--n", "7", "--B", "3", "--trials", "40",
                "--epsilon", "4.0", "--seed", "3"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        parsed = parse_report(out)
        assert parsed["config"]["scheme"] == "sliding"
        assert len(parsed["rows"]) == 1
        row = parsed["rows"][0]
        assert row["m"] == "5" and row["trials"] == "40"
        assert 0.0 <= float(row["p_e"]) <= 1.0

    def test_rate_scale_appends_threshold_row(self, capsys):
        args = ["simulate", "--net", "net-c", "--scheme", "sliding",
                "--m", "5", "--B", "2", "--trials", "20",
                "--epsilon", "4.0", "--rate-scale", "0.8,1.5",
                "--restarts", "2", "--plan", "0,1,2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        parsed = parse_report(out)
        assert len(parsed["rows"]) == 2
        assert parsed["r_star"] == pytest.approx(
            min(1 / h2(0.1), 1 / h2(conv(0.1, 0.2))), abs=1e-3)
        # below-threshold row keeps the realized rate at or under target
        lo = parsed["rows"][0]
        assert float(lo["rate"]) <= 0.8 * parsed["r_star"] + 1e-9

    def test_backward_k3_unsupported(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["simulate", "--net", _k3_document(tmp_path), "--scheme",
             "backward", "--m", "4", "--n", "8", "--B", "2", "--trials", "2"],
            capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "UnsupportedK"

    def test_structural_errors_precede_rate_search(self, capsys, tmp_path,
                                                   monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("rate search ran before the scheme checks")
        monkeypatch.setattr("relaycast.cli.optimize_rate", no_search)
        for args, want in [
                (["--net", _k3_document(tmp_path), "--scheme", "backward",
                  "--B", "2"], "UnsupportedK"),
                (["--net", "net-c", "--scheme", "ptp"], "PlanMismatch"),
                (["--net", "net-c", "--scheme", "sliding", "--B", "1"],
                 "BTooSmall")]:
            code, _, err = run_cli(
                ["simulate", "--m", "4", "--n", "8", "--trials", "2",
                 "--rate-scale", "0.8"] + args, capsys)
            assert code == 2
            assert json.loads(err)["error_code"] == want

    def test_rate_scale_rejects_unusable_factors(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("rate search ran for a bad rate-scale")
        monkeypatch.setattr("relaycast.cli.optimize_rate", no_search)
        # nan, inf and a factor whose m / factor overflows, alone and
        # after a good factor
        for scales in ("nan", "inf", "1e-320", "0.8,nan", "abc"):
            code, out, err = run_cli(
                ["simulate", "--net", "net-a", "--scheme", "ptp", "--m", "4",
                 "--trials", "2", "--rate-scale", scales], capsys)
            assert code == 2, scales
            assert out == ""
            assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("flags", [
        ["--epsilon", "inf"], ["--epsilon", "nan"], ["--epsilon", "-1"],
        ["--workers", "0"], ["--workers", "-3"]])
    def test_bad_epsilon_or_workers_rejected(self, flags, capsys):
        code, out, err = run_cli(
            ["simulate", "--net", "net-a", "--scheme", "ptp", "--m", "4",
             "--n", "8", "--trials", "2"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    def test_ptp_requires_k0(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--net", "net-c", "--scheme", "ptp",
             "--m", "4", "--n", "8", "--trials", "2"], capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "PlanMismatch"

    def test_config_file_supplies_ladder(self, tmp_path, capsys):
        cfg = {
            "net": "net-c", "scheme": "sliding", "epsilon": 4.0, "seed": 3,
            "ladder": [{"m": 4, "n": 6, "B": 2, "trials": 20},
                       {"m": 5, "n": 7, "B": 2, "trials": 20}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 0
        parsed = parse_report(out)
        assert [r["m"] for r in parsed["rows"]] == ["4", "5"]
        # explicit flags override config values
        code, out2, _ = run_cli(
            ["simulate", "--config", str(path), "--scheme", "backward"],
            capsys)
        assert parse_report(out2)["config"]["scheme"] == "backward"

    def test_bad_ladder_rejected(self, tmp_path, capsys):
        cfg = {"net": "net-c", "scheme": "sliding",
               "ladder": [{"m": 0, "n": 6, "B": 2, "trials": 20}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("ladder, error", [
        ('[{"m": 4, "n": 6', "ParseError"),
        ('[{"m": 4.7, "n": 6, "B": 2, "trials": 2}]', "SchemaError"),
        ('[{"m": 4, "n": 6, "B": true, "trials": 2}]', "SchemaError"),
    ])
    def test_malformed_ladder_flag(self, ladder, error, capsys):
        code, out, err = run_cli(
            ["simulate", "--net", "net-c", "--ladder", ladder], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == error

    def test_dry_run_matches_golden(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--net", "net-d", "--scheme", "sliding",
             "--B", "4", "--dry-run"], capsys)
        assert code == 0
        assert out == (GOLDEN / "sliding_k2_b4.txt").read_text()
        code, out, _ = run_cli(
            ["simulate", "--net", "net-d", "--scheme", "backward",
             "--B", "2", "--dry-run"], capsys)
        assert code == 0
        assert out == (GOLDEN / "backward_k2_b2.txt").read_text()

    @pytest.mark.parametrize("flags, error", [
        (["--scheme", "sliding", "--plan", "0,7,2", "--B", "3"],
         "InvalidPlan"),
        (["--scheme", "ptp"], "PlanMismatch"),
    ], ids=["invalid-plan", "ptp-on-net-c"])
    def test_dry_run_fails_as_a_run_does(self, flags, error, capsys):
        command = ["simulate", "--net", "net-c", "--m", "4", "--n", "6",
                   "--trials", "2"] + flags
        for extra in ([], ["--dry-run"]):
            code, out, err = run_cli(command + extra, capsys)
            assert code == 2
            assert out == ""
            assert json.loads(err)["error_code"] == error

    def test_dry_run_prints_ptp_as_one_backward_block(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--net", "net-a", "--scheme", "ptp", "--B", "4",
             "--dry-run"], capsys)
        assert code == 0
        assert out == rc.render_backward_schedule(0, 1)
        assert out.splitlines()[-1] == "1\tT0\tx0( w(1,1) )"


class TestFlagValues:
    @pytest.mark.parametrize("command", [
        ["rate", "--net", "net-a"],
        ["bound", "--net", "net-b", "--restarts", "1"],
        ["simulate", "--net", "net-c", "--m", "4", "--n", "6", "--B", "2",
         "--trials", "2"],
    ])
    def test_negative_seed(self, command, capsys):
        code, out, err = run_cli(command + ["--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("flags", [
        ["--restarts", "0"], ["--restarts", "-3"],
        ["--certify-tol", "nan"], ["--certify-tol", "-1"],
        ["--certify-tol", "inf"],
    ])
    @pytest.mark.parametrize("command", [
        ["rate", "--net", "net-a", "--list-plans"],
        ["bound", "--net", "net-a", "--certify"],
        ["simulate", "--net", "net-a", "--scheme", "ptp", "--trials", "1"],
    ])
    def test_bad_optimizer_options(self, command, flags, capsys,
                                   monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the options")
        monkeypatch.setattr("relaycast.cli.simulate_ptp", no_simulation)
        code, out, err = run_cli(command + flags, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("flags", [
        ["--bin-rate", "inf"], ["--bin-rate", "nan"],
        ["--bin-rate-delta", "nan"], ["--bin-rate-delta=-inf"],
    ])
    @pytest.mark.parametrize("scheme", sorted(SCHEME_RUNS))
    def test_non_finite_bin_rates(self, scheme, flags, capsys, monkeypatch):
        """Every scheme rejects them, read or not: the config line would
        echo them as no JSON number."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the bin rates")
        for name in ("simulate_ptp", "simulate_sliding_window",
                     "simulate_backward"):
            monkeypatch.setattr(f"relaycast.cli.{name}", no_simulation)
        code, out, err = run_cli(SCHEME_RUNS[scheme] + flags, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    def test_finite_bin_rate_beyond_range(self, capsys):
        code, out, err = run_cli(SCHEME_RUNS["ptp"] + ["--bin-rate", "1e9"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "TooLarge"

    @pytest.mark.parametrize("values", [
        {"restarts": 2.5}, {"seed": [1]}, {"seed": True}, {"seed": -3},
        {"epsilon": [3.0]}, {"certify_tol": False},
    ])
    def test_bad_config_values(self, values, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"net": "net-a", **values}))
        code, out, err = run_cli(["simulate", "--config", str(path),
                                  "--scheme", "ptp", "--trials", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == "SchemaError"

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--conf", "{}"],
                                          ["--conf={}"]],
                             ids=["config", "conf", "conf-equals"])
    def test_config_flag_as_argparse_reads_it(self, spelling, tmp_path,
                                              capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"plan": "0,1,2"}))
        code, out, _ = run_cli(
            ["rate", "--net", "net-b", "--restarts", "1"]
            + [s.format(path) for s in spelling], capsys)
        assert code == 0
        assert json.loads(out)["config"]["plan"] == "0,1,2"

    @pytest.mark.parametrize("text, error", [
        (None, "SchemaError"), ("{", "ParseError"), ("[1]", "SchemaError"),
    ], ids=["missing", "bad-json", "not-an-object"])
    def test_bad_config_file(self, text, error, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(["rate", "--net", "net-b", "--conf",
                                  str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error_code"] == error

    def test_config_values_take_the_flag_type(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"net": "net-a", "restarts": 2.0,
                                    "grid_step": None, "seed": "4"}))
        code, out, _ = run_cli(["rate", "--config", str(path)], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["restarts"], config["seed"]) == (2, 4)
        assert type(config["restarts"]) is int


class TestGenNet:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(["gen-net", "net-b"], capsys)
        assert code == 0
        spec = rc.load_network(out)
        assert (spec.K, spec.L) == (1, 1)

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(["gen-net", "net-zzz"], capsys)
        assert code == 2
        assert json.loads(err)["error_code"] == "SchemaError"


class TestDeterminism:
    def test_rate_reports_byte_identical(self, capsys):
        args = ["rate", "--net", "net-b", "--restarts", "4", "--seed", "5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_rate_and_bound_ignore_seed_and_restarts(self, capsys):
        # the certified solver reads no seed: only the config echo differs
        for command in (["rate", "--net", "net-b"],
                        ["bound", "--net", "net-b", "--certify"]):
            results, seeds = [], []
            for flags in (["--seed", "0"], ["--seed", "7", "--restarts", "3"]):
                _, out, _ = run_cli(command + flags, capsys)
                payload = json.loads(out)
                results.append(payload["result"])
                seeds.append(payload["config"]["seed"])
            assert results[0] == results[1]
            assert seeds == [0, 7]

    def test_simulation_byte_identical_across_workers(self, capsys):
        base = ["simulate", "--net", "net-c", "--scheme", "sliding",
                "--m", "5", "--n", "7", "--B", "3", "--trials", "40",
                "--epsilon", "4.0", "--seed", "3"]
        _, serial, _ = run_cli(base + ["--workers", "1"], capsys)
        _, threaded, _ = run_cli(base + ["--workers", "8"], capsys)
        assert serial == threaded

    def test_report_reparses_to_same_config(self, capsys):
        args = ["rate", "--net", "net-a", "--restarts", "2", "--seed", "1"]
        _, out, _ = run_cli(args, capsys)
        payload = parse_report(out)
        assert payload["config"]["net"] == "net-a"
        assert payload["config"]["seed"] == 1
        # emitted JSON is stable under a parse/dump cycle
        again = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert again == out
