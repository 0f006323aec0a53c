"""Rate-engine reports pinned byte for byte.

Every case renders one rate, bound or capacity report as text: CLI cases
are the command's stdout, library cases the report's sorted-key JSON.  The
texts live in ``golden/rate_reports.json``; running this file as a script
(``python tests/test_rate_golden.py``) rewrites it from the current code.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import relaycast as rc
from relaycast.cli import main

GOLDEN_REPORTS = Path(__file__).parent / "golden" / "rate_reports.json"

FAST = rc.OptimizerOptions(restarts=4)

L1_NETS = ["net-a", "net-a-noiseless", "net-b", "net-c", "net-d"]


def _cli(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    assert code == 0
    return out.getvalue()


def _library(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


#: golden key -> zero-argument renderer
CASES = {}
for _net in sorted(rc.BUNDLED):
    CASES[f"rate-list-plans/{_net}"] = (
        lambda n=_net: _cli("rate", "--net", n, "--restarts", "4",
                            "--list-plans"))
for _net in L1_NETS:
    CASES[f"bound-certify/{_net}"] = (
        lambda n=_net: _cli("bound", "--net", n, "--certify",
                            "--restarts", "4"))
CASES["rate-grid/net-b"] = lambda: _cli("rate", "--net", "net-b",
                                        "--grid-step", "0.05")
CASES["bound-grid/net-b"] = lambda: _cli("bound", "--net", "net-b",
                                         "--grid-step", "0.05")
for _net in ("net-h", "net-bc2"):
    CASES[f"single-relay-capacity/{_net}"] = (
        lambda n=_net: _library(rc.single_relay_broadcast_capacity(
            rc.bundled_network(n), FAST)))
CASES["broadcast-rate/net-bc2"] = lambda: _library(
    rc.broadcast_rate(rc.bundled_network("net-bc2")))
for _plan in rc.enumerate_plans(rc.bundled_network("net-d")):
    CASES[f"achievable-uniform/net-d/{_plan}"] = (
        lambda p=_plan: _library(rc.achievable_rate(
            rc.bundled_network("net-d"), None, p)))


@pytest.mark.parametrize("key", list(CASES))
def test_report_matches_golden(key):
    assert CASES[key]() == json.loads(GOLDEN_REPORTS.read_text())[key]


if __name__ == "__main__":
    GOLDEN_REPORTS.write_text(
        json.dumps({key: render() for key, render in CASES.items()},
                   indent=1, sort_keys=True) + "\n")
