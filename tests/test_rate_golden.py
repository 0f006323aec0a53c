"""Rate-engine reports pinned byte for byte.

Every case renders one rate, bound or capacity report as text: CLI cases
are the command's stdout, library cases the report's sorted-key JSON.  The
texts live in ``golden/rate_reports.json``; running this file as a script
(``python tests/test_rate_golden.py``) rewrites it from the current code.
The script prints, per key, every numeric field that changed, old -> new,
and refuses to write (exit status 1) when a ``rate``, ``bound`` or
``numerator_sup`` falls by more than ``MAX_FALL``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import relaycast as rc
from relaycast.cli import main

GOLDEN_REPORTS = Path(__file__).parent / "golden" / "rate_reports.json"

FAST = rc.OptimizerOptions()

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


#: How far a regenerated rate, bound or numerator_sup may fall.
MAX_FALL = 1e-12

GUARDED = ("rate", "bound", "numerator_sup")


def numeric_changes(old, new, path=""):
    """(path, old, new) of every numeric leaf of two parsed reports that
    differs or exists in one only; None stands for a missing leaf."""
    if isinstance(old, dict) or isinstance(new, dict):
        old = old if isinstance(old, dict) else {}
        new = new if isinstance(new, dict) else {}
        for k in sorted(set(old) | set(new)):
            yield from numeric_changes(old.get(k), new.get(k), f"{path}/{k}")
    elif isinstance(old, list) or isinstance(new, list):
        old = old if isinstance(old, list) else []
        new = new if isinstance(new, list) else []
        for i in range(max(len(old), len(new))):
            yield from numeric_changes(old[i] if i < len(old) else None,
                                       new[i] if i < len(new) else None,
                                       f"{path}[{i}]")
    elif (isinstance(old, (int, float)) or isinstance(new, (int, float))) \
            and repr(old) != repr(new):
        yield path, old, new


def fell(path: str, old, new) -> bool:
    """Whether a guarded field fell by more than MAX_FALL."""
    if path.rsplit("/", 1)[-1] not in GUARDED or old is None:
        return False
    return new is None or (math.isfinite(old) and new < old - MAX_FALL)


def regenerate() -> int:
    old = json.loads(GOLDEN_REPORTS.read_text())
    new = {key: render() for key, render in CASES.items()}
    falls = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            print(f"{key}: {'added' if key in new else 'removed'}")
            continue
        for path, was, now in numeric_changes(json.loads(old[key]),
                                              json.loads(new[key])):
            print(f"{key} {path}: {was!r} -> {now!r}")
            if fell(path, was, now):
                falls.append(f"{key} {path}")
    if falls:
        print(f"not written: {len(falls)} guarded fields fell by more than "
              f"{MAX_FALL}: {', '.join(falls)}", file=sys.stderr)
        return 1
    GOLDEN_REPORTS.write_text(json.dumps(new, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
