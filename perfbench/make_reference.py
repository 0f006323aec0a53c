"""Rebuild ``reference.json``: the binomial bands of the simulation checks.

Runs every simulation point of ``sim-backward`` and ``sim-ptp`` at the
reference seeds, pools the error counts, and turns each pooled count into
an acceptance band for one run at a fresh seed:

* the pooled rate's two-sided Clopper-Pearson interval at level
  ``ALPHA_POOL`` gives [p_lo, p_hi];
* the band is [the ALPHA/2 quantile of Binomial(trials, p_lo), the
  1 - ALPHA/2 quantile of Binomial(trials, p_hi)].

While the true error rate lies in the pooled interval, one count falls
outside its band with probability at most ``ALPHA`` (1e-6).  A
``sim-backward`` pass makes 6 such checks and a ``sim-ptp`` pass 4, so a
run trips a band by chance with probability at most 6e-6.

Run from the checkout root; it takes a few minutes::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

SEEDS = list(range(1000, 1020))
ALPHA = 1e-6
ALPHA_POOL = 1e-3


def _log_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return min(1.0, sum(math.exp(_log_pmf(j, n, p)) for j in range(k + 1)))


def _bisect(f, lo: float = 0.0, hi: float = 1.0) -> float:
    """Root of a function that is increasing in p on [lo, hi]."""
    for _ in range(60):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def pooled_interval(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval for k successes in n trials."""
    p_lo = 0.0 if k == 0 else _bisect(
        lambda p: (1 - cdf(k - 1, n, p)) - alpha / 2)
    p_hi = 1.0 if k == n else _bisect(
        lambda p: (alpha / 2) - cdf(k, n, p))
    return p_lo, p_hi


def band(k: int, n_pool: int, trials: int) -> list[int]:
    p_lo, p_hi = pooled_interval(k, n_pool, ALPHA_POOL)
    lo = next(j for j in range(trials + 1)
              if cdf(j, trials, p_lo) > ALPHA / 2)
    hi = next(j for j in range(trials + 1)
              if cdf(j, trials, p_hi) >= 1 - ALPHA / 2)
    return [lo, hi]


def main() -> int:
    rc = wl.load_relaycast()
    sims = {
        "sim-backward": (wl.BACKWARD, wl.backward_points(rc), wl.run_backward),
        "sim-ptp": (wl.PTP, wl.PTP["points"], wl.run_ptp),
    }
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True,
                            cwd=wl.ROOT).stdout.strip()
    out = {"commit": commit, "seeds": SEEDS, "alpha": ALPHA,
           "alpha_pool": ALPHA_POOL}
    for name, (cfg, points, run_point) in sims.items():
        spec = rc.bundled_network(cfg["net"])
        out[name] = {}
        for label, arg, _ in points:
            pooled: dict[str, int] = {}
            for seed in SEEDS:
                res = run_point(rc, spec, arg, seed)
                for key, value in wl.sim_counts(res).items():
                    pooled[key] = pooled.get(key, 0) + value
            n_pool = cfg["trials"] * len(SEEDS)
            out[name][label] = {
                "pooled": {key: [k, n_pool] for key, k in pooled.items()},
                "bands": {key: band(k, n_pool, cfg["trials"])
                          for key, k in pooled.items()},
            }
            print(name, label, out[name][label], flush=True)
    wl.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
