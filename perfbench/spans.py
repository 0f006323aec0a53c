"""Span tracing of relaycast's layers from outside the package.

``installed(tracer, rc)`` patches each layer's entry points with wrappers
that record a span (id, name, parent, start, end) and a few counters, and
restores every patched attribute on exit.  No source file changes.  Modules
bind imported names at import time, so a function is patched in every
namespace that looks it up (``compose_joint`` in ``rates`` and
``network``, ``child_rng`` in ``codebooks``, ``simulate``, ``typicality``,
``optimize`` and ``seeds``); methods are patched on their class.  Two entry
points are private names: ``rates._optimize_plan`` (one call per plan) and
``simulate._ChannelSampler.sample`` (the only way to reach channel
sampling).

Spans stay in per-thread arrays while the run lasts (``sim-ptp`` runs
trials on two pool threads), so each thread keeps its own span stack.
Trials run by the pool take the pool's span as their parent.  Self times
are derived after the run: a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Per-layer metrics of the traced run: (name, unit, better, kind, moves, on).
#: ``kind`` is "exact" for counts that repeat bit-for-bit at a fixed seed,
#: "computed" for bytes or cells derived from array sizes, "time" for
#: measured durations and "ratio" for derived fractions.  ``moves`` names
#: the end-to-end metric the layer metric should move and ``on`` the
#: workloads where it should.
LAYER_METRICS = [
    ("rates.objective_calls", "count", "lower", "exact", "pass_s",
     "rate-auto; 0 on sim-*"),
    ("rates.objective_us", "us", "lower", "time", "pass_s",
     "rate-auto"),
    ("rates.plans", "count", "lower", "exact", "pass_s",
     "rate-auto; 0 on sim-*"),
    ("optimize.evals", "count", "lower", "exact", "pass_s",
     "rate-auto"),
    ("optimize.searches", "count", "lower", "exact", "pass_s",
     "rate-auto"),
    ("optimize.self_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("optimize.converged_frac", "ratio", "higher", "ratio", "pass_s",
     "rate-auto"),
    ("network.compose_calls", "count", "lower", "exact", "pass_s",
     "rate-auto; set-up only on sim-*"),
    ("network.compose_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("network.extend_input_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("network.bytes_composed", "B", "lower", "computed", "pass_s",
     "rate-auto"),
    ("pmf.jointpmf_built", "count", "lower", "exact", "pass_s",
     "rate-auto"),
    ("pmf.jointpmf_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("pmf.entropy_calls", "count", "lower", "exact", "pass_s",
     "rate-auto"),
    ("pmf.entropy_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("cli.self_s", "s", "lower", "time", "pass_s",
     "rate-auto"),
    ("seeds.child_rng_calls", "count", "lower", "exact", "pass_s",
     "sim-backward; about 4 per trial on sim-ptp"),
    ("seeds.child_rng_per_trial", "count", "lower", "exact", "pass_s",
     "sim-backward"),
    ("seeds.child_rng_s", "s", "lower", "time", "pass_s", "sim-backward"),
    ("codebooks.slice_calls", "count", "lower", "exact", "pass_s",
     "sim-backward (small slices), sim-ptp (one big table)"),
    ("codebooks.gen_s", "s", "lower", "time", "pass_s",
     "sim-backward, sim-ptp"),
    ("codebooks.distinct_slice_frac", "ratio", "higher", "ratio", "pass_s",
     "sim-backward"),
    ("codebooks.cells_requested", "count", "lower", "computed",
     "pass_s, peak_rss_mb", "sim-backward, sim-ptp"),
    ("typicality.check_calls", "count", "lower", "exact", "pass_s",
     "sim-ptp; small on sim-backward"),
    ("typicality.check_s", "s", "lower", "time", "pass_s",
     "sim-ptp; small on sim-backward"),
    ("typicality.candidates", "count", "lower", "exact", "pass_s",
     "sim-ptp"),
    ("typicality.bytes_computed", "B", "lower", "computed",
     "pass_s, peak_rss_mb", "sim-ptp"),
    ("typicality.codebook_build_s", "s", "lower", "time", "pass_s",
     "sim-backward, sim-ptp"),
    ("simulate.trial_us", "us", "lower", "time", "pass_s",
     "sim-backward, sim-ptp"),
    ("simulate.trial_us_tail", "us", "lower", "time", "pass_s",
     "sim-backward, sim-ptp"),
    ("simulate.self_s", "s", "lower", "time", "pass_s", "sim-backward"),
    ("simulate.channel_sample_s", "s", "lower", "time", "pass_s",
     "sim-backward, sim-ptp"),
    ("simulate.pool_util", "ratio", "higher", "ratio", "pass_s", "sim-ptp"),
    ("trace.overhead_pass_s", "s", "lower", "time", "-", "all"),
    ("trace.overhead_setup_s", "s", "lower", "time", "-", "all"),
    ("trace.overhead_rss_mb", "MB", "lower", "computed", "-", "all"),
]

#: The counts that must repeat bit-for-bit across invocations at one seed.
EXACT = [m[0] for m in LAYER_METRICS if m[3] == "exact"]


class _ThreadBuffer:
    """One thread's spans (parallel arrays), open-span stack and counters."""

    def __init__(self) -> None:
        self.ids = array("q")
        self.codes = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.slice_keys: set | None = None
        self.in_codebooks = False


class Tracer:
    """In-memory span recorder shared by every thread of one traced pass."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self.names: list[str] = []

    def code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def current(self) -> int:
        stack = self.buffer().stack
        return stack[-1] if stack else -1

    def call(self, code: int, fn: Callable, args: tuple, kwargs: dict,
             parent: int | None = None) -> Any:
        buf = self.buffer()
        sid = next(self._ids)
        stack = buf.stack
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            buf.ids.append(sid)
            buf.codes.append(code)
            buf.parents.append(parent)
            buf.starts.append(t0)
            buf.ends.append(t1)

    def wrap(self, name: str, fn: Callable,
             count: Callable[[Counter, tuple, Any], None] | None = None
             ) -> Callable:
        """``fn`` recording one span per call; ``count(counters, args,
        result)`` adds to the calling thread's counters."""
        code = self.code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(code, fn, args, kwargs)
            if count is not None:
                count(self.buffer().counters, args, result)
            return result
        return traced

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans, indexed by span id."""
        ids = np.concatenate([np.frombuffer(b.ids, dtype=np.int64)
                              for b in self._buffers] or [np.zeros(0, int)])
        order = np.argsort(ids)

        def cat(attr: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(b, attr), dtype=dtype)
                     for b in self._buffers]
            return np.concatenate(parts or [np.zeros(0, dtype)])[order]
        return {"ids": ids[order], "codes": cat("codes", np.int32),
                "parents": cat("parents", np.int64),
                "starts": cat("starts", np.float64),
                "ends": cat("ends", np.float64)}

    def counters(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counters)
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.spans())

    def layer_metrics(self, trials: int) -> dict[str, float]:
        """Every per-layer metric except the ``trace.overhead_*`` ones."""
        sp = self.spans()
        codes, parents = sp["codes"], sp["parents"]
        if not np.array_equal(sp["ids"], np.arange(codes.size)):
            raise RuntimeError("span ids are not dense")
        dur = sp["ends"] - sp["starts"]
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=dur[has_parent],
                               minlength=codes.size)
        self_time = dur - children
        parent_code = np.full(codes.size, -1)
        parent_code[has_parent] = codes[parents[has_parent]]
        c = self.counters()

        def code_list(names: tuple[str, ...]) -> list[int]:
            return [self.names.index(n) for n in names if n in self.names]

        def mask(*names: str) -> np.ndarray:
            return np.isin(codes, code_list(names))

        def calls(*names: str) -> int:
            return int(mask(*names).sum())

        def outer(*names: str) -> np.ndarray:
            """Calls of any of ``names`` not nested in another of them."""
            want = code_list(names)
            return np.isin(codes, want) & ~np.isin(parent_code, want)

        def outer_calls(*names: str) -> int:
            return int(outer(*names).sum())

        def outer_s(*names: str) -> float:
            """Time inside any of ``names``, nested calls counted once."""
            return float(dur[outer(*names)].sum())

        def self_s(name: str) -> float:
            return float(self_time[mask(name)].sum())

        objective = dur[mask("rates.objective")]
        trial = np.sort(dur[mask("simulate.trial")]) * 1e6
        searches = calls("optimize.search")
        slices = outer_calls("codebooks.rows", "codebooks.row")
        rng_calls = calls("seeds.child_rng")
        return {
            "rates.objective_calls": objective.size,
            "rates.objective_us": float(objective.mean() * 1e6)
            if objective.size else 0.0,
            "rates.plans": calls("rates.optimize_plan"),
            "optimize.evals": c["optimize.evals"],
            "optimize.searches": searches,
            "optimize.self_s": self_s("optimize.search"),
            "optimize.converged_frac":
                c["optimize.converged"] / searches if searches else 0.0,
            "network.compose_calls": calls("network.compose"),
            "network.compose_s": outer_s("network.compose"),
            "network.extend_input_s": outer_s("network.extend_input"),
            "network.bytes_composed": c["network.bytes_composed"],
            "pmf.jointpmf_built": calls("pmf.jointpmf"),
            "pmf.jointpmf_s": outer_s("pmf.jointpmf"),
            "pmf.entropy_calls": calls("pmf.entropy"),
            "pmf.entropy_s": outer_s("pmf.entropy"),
            "cli.self_s": self_s("cli.report"),
            "seeds.child_rng_calls": rng_calls,
            "seeds.child_rng_per_trial": rng_calls / trials if trials else 0.0,
            "seeds.child_rng_s": outer_s("seeds.child_rng"),
            "codebooks.slice_calls": slices,
            "codebooks.gen_s": outer_s("codebooks.rows", "codebooks.row"),
            "codebooks.distinct_slice_frac":
                c["codebooks.distinct_slices"] / slices if slices else 0.0,
            "codebooks.cells_requested": c["codebooks.cells_requested"],
            "typicality.check_calls": calls("typicality.check_batch"),
            "typicality.check_s": outer_s("typicality.check_batch"),
            "typicality.candidates": c["typicality.candidates"],
            "typicality.bytes_computed": c["typicality.bytes_computed"],
            "typicality.codebook_build_s": outer_s("typicality.build_codebook"),
            "simulate.trial_us": float(np.median(trial)) if trial.size
            else 0.0,
            "simulate.trial_us_tail": tail(trial),
            "simulate.self_s": self_s("simulate.trial"),
            "simulate.channel_sample_s": outer_s("simulate.channel_sample"),
            "simulate.pool_util":
                float(trial.sum() / 1e6 / c["simulate.pool_capacity_s"])
                if c["simulate.pool_capacity_s"] else 0.0,
        }


def tail(sorted_values: np.ndarray) -> float:
    """The highest percentile with at least ten samples beyond it (the
    value just below the ten largest); 0 when there are not that many."""
    if sorted_values.size < 20:
        return 0.0
    return float(sorted_values[-11])


def tail_label(n: int) -> str:
    return f"p{100 * (n - 10) / n:.2f} of {n}" if n >= 20 else "none"


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def installed(tracer: Tracer, rc) -> Iterator[None]:
    """Patch relaycast's layer entry points for the duration of the block."""
    import relaycast.cli as cli
    import relaycast.codebooks as codebooks
    import relaycast.network as network
    import relaycast.optimize as optimize
    import relaycast.pmf as pmf
    import relaycast.rates as rates
    import relaycast.seeds as seeds
    import relaycast.simulate as simulate
    import relaycast.typicality as typicality

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner, attr: str, new: Callable) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(owner, attr: str, name: str, count=None) -> None:
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))

    try:
        # pmf
        wrap(pmf.JointPmf, "__post_init__", "pmf.jointpmf")
        wrap(pmf.JointPmf, "entropy", "pmf.entropy")

        # network
        def composed(c, args, result):
            c["network.bytes_composed"] += result.probs.nbytes
        compose = tracer.wrap("network.compose", network.compose_joint,
                              composed)
        patch(rates, "compose_joint", compose)
        patch(network, "compose_joint", compose)
        wrap(network.NetworkSpec, "extend_input", "network.extend_input")

        # rates and optimize: every objective handed to a search is wrapped
        objective_code = tracer.code("rates.objective")

        def searched(c, args, result):
            c["optimize.evals"] += result.evals
            c["optimize.converged"] += bool(result.converged)

        def search_wrapper(search: Callable) -> Callable:
            traced = tracer.wrap("optimize.search", search, searched)

            @functools.wraps(search)
            def run(objective, *args, **kwargs):
                def traced_objective(p):
                    return tracer.call(objective_code, objective, (p,), {})
                return traced(traced_objective, *args, **kwargs)
            return run

        for attr in ("maximize_over_simplex", "maximize_on_grid"):
            patch(rates, attr, search_wrapper(rates.__dict__[attr]))
        wrap(rates, "_optimize_plan", "rates.optimize_plan")

        # seeds: child_rng is bound by name in each of these modules
        child_rng = tracer.wrap("seeds.child_rng", seeds.child_rng)
        for module in (seeds, codebooks, simulate, typicality, optimize):
            patch(module, "child_rng", child_rng)

        # codebooks: only outermost rows/row calls count as slice requests
        # (row() on a small slice calls rows(), and _symbol_cdf calls row());
        # a slice is keyed on (level, copy, upper), whatever row it serves
        stack_cls = codebooks.ChannelCodebookStack

        def slice_wrapper(attr: str):
            code = tracer.code(f"codebooks.{attr}")
            method = stack_cls.__dict__[attr]

            @functools.wraps(method)
            def traced(stack, level, copy, upper=(), *rest):
                buf = tracer.buffer()
                if buf.in_codebooks:
                    return tracer.call(code, method,
                                       (stack, level, copy, upper, *rest), {})
                buf.in_codebooks = True
                try:
                    result = tracer.call(code, method,
                                         (stack, level, copy, upper, *rest), {})
                finally:
                    buf.in_codebooks = False
                buf.counters["codebooks.cells_requested"] += result.size
                if buf.slice_keys is not None:
                    buf.slice_keys.add((level, copy, tuple(upper)))
                return result
            return traced
        patch(stack_cls, "rows", slice_wrapper("rows"))
        patch(stack_cls, "row", slice_wrapper("row"))

        # typicality
        def checked(c, args, result):
            test, candidates = args[0], args[1]
            c["typicality.candidates"] += candidates.shape[0]
            c["typicality.bytes_computed"] += \
                candidates.shape[0] * (test.n + test.ncells) * 8
        wrap(typicality.TypicalityTest, "check_batch",
             "typicality.check_batch", checked)
        wrap(simulate, "build_typical_source_codebook",
             "typicality.build_codebook")

        # simulate: each trial the pool runs is a span under the pool's span
        wrap(simulate._ChannelSampler, "sample", "simulate.channel_sample")
        trial_code = tracer.code("simulate.trial")
        pool_map = simulate.parallel_map

        def traced_pool(fn, items, workers=1):
            pool = tracer.current()

            def trial(x):
                buf = tracer.buffer()
                buf.slice_keys = set()
                try:
                    return tracer.call(trial_code, fn, (x,), {}, parent=pool)
                finally:
                    buf.counters["codebooks.distinct_slices"] += \
                        len(buf.slice_keys)
                    buf.slice_keys = None
            t0 = perf_counter()
            out = pool_map(trial, items, workers)
            lanes = max(1, min(workers, len(items)))
            tracer.buffer().counters["simulate.pool_capacity_s"] += \
                (perf_counter() - t0) * lanes
            return out
        patch(simulate, "parallel_map",
              tracer.wrap("simulate.pool", traced_pool))

        # the points and reports the benchmark calls
        for attr in ("simulate_backward", "simulate_ptp"):
            wrap(rc, attr, "simulate.point")
        wrap(cli, "main", "cli.report")
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
