"""Achievable source-channel code rates, capacity values and cut-set bounds.

A cooperation plan fixes which terminals decode and in which order, and its
senders which transmit.  Hop i, terminal pi(i) decoding the senders before
plan position i given those from position i on, contributes the ratio

    I(X_{senders < i}; Y_{pi(i)} | X_{senders >= i}) / H(S_0 | S_{pi(i)})

and the plan's rate is the minimum ratio: a relay-broadcast plan's senders
are its terminals, a single-destination plan's all but the last, broadcast's
(0,) and the single-relay broadcast capacity's (0, 1).  ``optimize_rate``
maximizes that minimum over the senders' joint input (and, in auto mode,
over all plans).  A vanishing denominator makes the hop vacuous (ratio
+inf); if every hop is vacuous the rate is unbounded.

The cut-set bound is a minimum of such terms over pooled outputs.  The
solver and every report evaluate them through one array path,
``_hop_evaluator``, on batches of input joints: the solver hands it each
point it visits, a report a batch of one.  It composes each batch with
the channel into one batch-first joint and runs the package's one
information kernel, ``pmf.InformationKernel``, which sums every distinct
marginal once per batch (every hop of a plan shares H(A,C)) and, for the
solver, also returns each term's gradient in the input joint from those
marginals.  Each row matches ``JointPmf.mutual_information`` bit for bit,
and no ``JointPmf`` is built per evaluation.

Every optimized report is certified: ``optimize.maximize_over_simplex``
proves an upper value of the optimum from the gradients (the Frank-Wolfe
gap of the maximin), and the report carries it as ``upper``, with
``gap = upper - rate`` and ``converged`` meaning that gap is at most
``optimize.CERTIFY_GAP``.  A cut of the ordered cut-set bound reports its
proven upper value as ``numerator_sup``, so the bound is an upper bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import optimize
from .errors import (
    AlphabetMismatch,
    InvalidPlan,
    MultipleDestinations,
    NotBroadcastShape,
    NotDegraded,
    NotLemmaShape,
    SchemaError,
    TooLarge,
    TooManyPlans,
    whole_number,
)
from .network import (
    NetworkSpec,
    compose_joint,
    input_label,
    is_physically_degraded,
    is_side_info_degraded,
    output_label,
    source_label,
)
from .optimize import (
    OptimizerOptions,
    SearchResult,
    certify,
    maximize_on_grid,
    maximize_over_simplex,
)
from .pmf import InformationKernel, JointPmf

#: Denominators at or below this are treated as zero (hop imposes no limit).
ZERO_ENTROPY_TOL = 1e-12

#: Default cap on the number of enumerated plans.
DEFAULT_PLAN_CAP = 10_080

MODE_SINGLE = "single-destination"
MODE_BROADCAST = "relay-broadcast"

_BROADCAST_CONDITIONING_NOTE = (
    "relay-broadcast hops condition on the inputs of all participating "
    "terminals not yet decoded at that hop (positions i..N of the plan, "
    "which include every destination input)")

_DF_BOTTLENECK_NOTE = (
    "a hop has zero mutual information but positive residual source "
    "uncertainty: decode-and-forward gives rate 0 here; schemes that forward "
    "side information without decoding are outside this evaluator")


@dataclass(frozen=True)
class CooperationPlan:
    """Ordered decoding plan: order = (pi(0)=0, pi(1), ..., pi(N)), whole
    numbers (InvalidPlan for any other entry, ``1.7`` and ``True`` too)."""

    order: tuple[int, ...]

    def __post_init__(self):
        try:
            order = tuple(whole_number(t, "a plan entry") for t in self.order)
        except (SchemaError, TypeError) as exc:
            raise InvalidPlan(f"bad plan {self.order!r}: {exc}") from exc
        object.__setattr__(self, "order", order)

    @property
    def num_hops(self) -> int:
        return len(self.order) - 1

    @property
    def decoders(self) -> tuple[int, ...]:
        return self.order[1:]

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.order)


def as_plan(plan: CooperationPlan | Sequence[int] | str) -> CooperationPlan:
    """``plan`` as a :class:`CooperationPlan`: a plan itself, a comma list
    of terminals such as ``"0,1,3"`` or a sequence of terminals."""
    if isinstance(plan, CooperationPlan):
        return plan
    return CooperationPlan(plan.split(",") if isinstance(plan, str) else plan)


def validate_plan(spec: NetworkSpec, plan: CooperationPlan, mode: str) -> None:
    order = plan.order
    if len(order) < 2:
        raise InvalidPlan("plan needs at least the source and one decoder")
    if order[0] != 0:
        raise InvalidPlan(f"plan must start at terminal 0, got {order}")
    if len(set(order)) != len(order):
        raise InvalidPlan(f"plan repeats a terminal: {order}")
    if any(t < 0 or t > spec.K + spec.L for t in order):
        raise InvalidPlan(f"plan {order} references unknown terminals")
    if mode == MODE_SINGLE:
        if spec.L != 1:
            raise InvalidPlan(
                f"single-destination mode requires L=1, network has L={spec.L}")
        if order[-1] != spec.K + 1:
            raise InvalidPlan(
                f"plan must end at the destination {spec.K + 1}, got {order}")
        if any(not (1 <= t <= spec.K) for t in order[1:-1]):
            raise InvalidPlan(f"middle plan entries must be relays: {order}")
        if spec.input_sizes[spec.K + 1] != 1:
            raise InvalidPlan(
                "single-destination mode needs a constant destination input")
    elif mode == MODE_BROADCAST:
        missing = [d for d in spec.destinations() if d not in order[1:]]
        if missing:
            raise InvalidPlan(
                f"plan must include every destination, missing {missing}")
    else:
        raise InvalidPlan(f"unknown mode {mode!r}")


def default_mode(spec: NetworkSpec) -> str:
    return MODE_SINGLE if spec.L == 1 else MODE_BROADCAST


def _senders(plan: CooperationPlan, mode: str) -> tuple[int, ...]:
    """The terminals that transmit under ``plan``: all of them, but a
    single destination only listens."""
    return plan.order[:-1] if mode == MODE_SINGLE else plan.order


def enumerate_plans(spec: NetworkSpec, mode: str | None = None,
                    cap: int = DEFAULT_PLAN_CAP) -> list[CooperationPlan]:
    """All valid plans sorted by (hops, order): every relay subset in every
    order, before a single destination or mixed with every destination.
    An unknown ``mode`` raises :class:`InvalidPlan` before any plan is
    built."""
    cap = whole_number(cap, "cap")
    mode = mode or default_mode(spec)
    if mode not in (MODE_SINGLE, MODE_BROADCAST):
        raise InvalidPlan(f"unknown mode {mode!r}")
    if mode == MODE_SINGLE and spec.L != 1:
        raise InvalidPlan("single-destination enumeration requires L=1")
    joined, last = (((), (spec.K + 1,)) if mode == MODE_SINGLE
                    else (spec.destinations(), ()))
    count = sum(math.comb(spec.K, r) * math.factorial(r + len(joined))
                for r in range(spec.K + 1))
    if count > cap:
        raise TooManyPlans(
            f"{count} plans exceed the cap {cap}; pass an explicit plan")
    plans = [CooperationPlan((0,) + perm + last)
             for r in range(spec.K + 1)
             for subset in itertools.combinations(range(1, spec.K + 1), r)
             for perm in itertools.permutations(subset + joined)]
    plans.sort(key=lambda p: (p.num_hops, p.order))
    return plans


# ---------------------------------------------------------------------------
# Hop evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopTerm:
    index: int                 # 1-based position in the plan
    terminal: int              # decoding terminal pi(index)
    numerator: float           # bits per channel use
    denominator: float         # bits per source symbol
    ratio: float               # numerator / denominator, +inf when vacuous

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _pmf_dict(pmf: JointPmf) -> dict[str, Any]:
    """An input joint as a report prints it: its probabilities flat."""
    return {"variables": list(pmf.variables), "sizes": list(pmf.sizes),
            "probs": pmf.probs.reshape(-1).tolist()}


@dataclass(frozen=True)
class RateReport:
    mode: str
    plan: CooperationPlan | None
    rate: float
    per_hop: tuple[HopTerm, ...]
    bottleneck: int | None     # 1-based hop index attaining the minimum
    input_pmf: JointPmf | None
    unbounded: bool = False
    converged: bool = True
    evals: int = 0
    notes: tuple[str, ...] = ()
    certificate: dict[str, Any] | None = None
    upper: float | None = None  # proven upper value of the optimized rate

    @property
    def gap(self) -> float | None:
        """``upper - rate``, 0.0 for an unbounded rate, None unless the
        report comes from an optimization."""
        if self.upper is None:
            return None
        return 0.0 if self.upper == self.rate else self.upper - self.rate

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mode": self.mode,
            "plan": list(self.plan.order) if self.plan else None,
            "rate": self.rate,
            "per_hop": [h.to_dict() for h in self.per_hop],
            "bottleneck": self.bottleneck,
            "unbounded": self.unbounded,
            "converged": self.converged,
            "evals": self.evals,
            "notes": list(self.notes),
        }
        if self.upper is not None:
            out["upper"] = self.upper
            out["gap"] = self.gap
        if self.input_pmf is not None:
            out["input_pmf"] = _pmf_dict(self.input_pmf)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


#: One hop: (terminal, message inputs, observed outputs, conditioning inputs).
Hop = tuple[int, list[str], list[str], list[str]]


def _hop_sets(plan: CooperationPlan, senders: Sequence[int]) -> list[Hop]:
    """Hop i of ``plan``: terminal pi(i) decodes the inputs of the
    ``senders`` before plan position i, given the inputs of the senders
    from position i on."""
    order = plan.order
    return [(t, [input_label(s) for s in senders if s in order[:i]],
             [output_label(t)],
             [input_label(s) for s in senders if s not in order[:i]])
            for i, t in enumerate(order[1:], 1)]


def _hop_evaluator(spec: NetworkSpec, hops: Sequence[Hop]) -> Callable:
    """The hop numerators I(a; b | cond) as a function of a batch of joints
    over every channel input: (B, input cells) rows in channel input order
    (or (B,) + input sizes) to a (B, hops) array; with ``gradient=True``,
    also their (B, hops, input cells) gradients in the input joint.

    It composes the rows with the channel into one batch-first joint, with
    the products ``compose_joint`` takes, and runs ``pmf.InformationKernel``
    on it, built once here from axes found once; at most
    ``optimize.BATCH_BYTES`` of joints are composed at a time.  Each row's
    numerators equal those of the row evaluated alone, bit for bit, with or
    without gradients.
    """
    layout = compose_joint(spec.uniform_input(), spec.channel)
    kernel = InformationKernel(layout.sizes, [
        layout.information_axes(a, b, cond) for _, a, b, cond in hops])
    shape = spec.input_sizes + (1,) * len(spec.output_sizes)
    law = spec.channel.probs

    def evaluate(inputs: np.ndarray, gradient: bool = False):
        rows = inputs.reshape(len(inputs), -1)
        out = np.empty((len(rows), len(hops)))
        grads = np.empty(out.shape + rows.shape[1:]) if gradient else None
        chunk = max(1, optimize.BATCH_BYTES // law.nbytes)
        for lo in range(0, len(rows), chunk):
            batch = rows[lo:lo + chunk]
            out[lo:lo + chunk], grad = kernel.with_gradient(
                law * batch.reshape((len(batch),) + shape),
                law if gradient else None, len(spec.input_sizes))
            if gradient:
                grads[lo:lo + chunk] = grad
        return (out, grads) if gradient else out
    return evaluate


def _hop_terms(hops: Sequence[Hop], dens: Sequence[float],
               numerators: np.ndarray) -> list[HopTerm]:
    """The hop terms of one row of ``_hop_evaluator``'s numerators."""
    return [HopTerm(idx, terminal, num, den,
                    math.inf if den <= ZERO_ENTROPY_TOL else num / den)
            for idx, ((terminal, _, _, _), num, den)
            in enumerate(zip(hops, numerators.tolist(), dens), 1)]


def _report_at(spec: NetworkSpec, mode: str, plan: CooperationPlan,
               senders: Sequence[int],
               input_pmf: JointPmf | None) -> RateReport:
    """The report of ``plan``'s hops with ``senders`` transmitting,
    evaluated once at ``input_pmf``, a joint over some of their inputs
    (None: uniform over their non-constant inputs)."""
    hops = _hop_sets(plan, senders)
    participating = tuple(input_label(t) for t in senders)
    full = spec.extend_input(input_pmf, participating)
    covered = () if input_pmf is None else input_pmf.variables
    stray = set(covered) - set(participating)
    if stray:
        raise AlphabetMismatch(
            f"input pmf covers non-participating inputs {sorted(stray)}")
    dens = [spec.source_entropy_given(t) for t, _, _, _ in hops]
    numerators = _hop_evaluator(spec, hops)(
        full.marginal_array(spec.input_labels())[None])[0]
    return _report_from_terms(mode, plan, _hop_terms(hops, dens, numerators),
                              _shown_input(spec, input_pmf, participating))


def _shown_input(spec: NetworkSpec, input_pmf: JointPmf | None,
                 participating: Sequence[str]) -> JointPmf:
    """The input joint a report shows: ``input_pmf``, or for None the
    uniform joint over the non-constant ``participating`` inputs that it
    stands for."""
    if input_pmf is not None:
        return input_pmf
    return spec.extend_input(None, participating).marginalize(participating)


def _report_from_terms(mode: str, plan: CooperationPlan,
                       terms: Sequence[HopTerm], input_pmf: JointPmf,
                       **kw) -> RateReport:
    finite = [(t.ratio, t.index) for t in terms if math.isfinite(t.ratio)]
    if finite:
        rate, bottleneck = min(finite)
        unbounded = False
    else:
        rate, bottleneck, unbounded = math.inf, None, True
    notes = list(kw.pop("notes", ()))
    if mode == MODE_BROADCAST:
        notes.append(_BROADCAST_CONDITIONING_NOTE)
    if any(t.numerator <= 1e-12 and t.denominator > ZERO_ENTROPY_TOL
           for t in terms):
        notes.append(_DF_BOTTLENECK_NOTE)
    return RateReport(mode=mode, plan=plan, rate=rate, per_hop=tuple(terms),
                      bottleneck=bottleneck, input_pmf=input_pmf,
                      unbounded=unbounded, notes=tuple(notes), **kw)


def achievable_rate(spec: NetworkSpec, input_pmf: JointPmf | None,
                    plan: CooperationPlan | Sequence[int] | str,
                    mode: str | None = None) -> RateReport:
    """Rate achieved by decode-and-forward under ``plan`` (in any form
    :func:`as_plan` reads) at ``input_pmf``.

    ``input_pmf`` is a joint over the participating terminals' inputs
    (non-participants are pinned to the constant symbol); None means uniform.
    """
    plan = as_plan(plan)
    mode = mode or default_mode(spec)
    validate_plan(spec, plan, mode)
    return _report_at(spec, mode, plan, _senders(plan, mode), input_pmf)


# ---------------------------------------------------------------------------
# Optimization over the input simplex
# ---------------------------------------------------------------------------

#: Cap on the number of cells of the input joint an optimization searches.
MAX_CELLS = 4096


def _free_labels(spec: NetworkSpec, labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(v for v in labels if spec.input_sizes[int(v[1:])] > 1)


def _maximin(spec: NetworkSpec, participating: Sequence[str],
             hops: Sequence[Hop], dens: Sequence[float],
             opts: OptimizerOptions
             ) -> tuple[JointPmf | None, list[HopTerm], SearchResult]:
    """Maximize the minimum non-vacuous hop ratio over the joint of the
    participating inputs (every other input pinned to symbol 0).

    Returns the best joint over the non-constant participating inputs (None
    when all are constant), the hop terms there and the search result,
    whose ``upper`` is a proven upper value of the maximum (for the grid
    oracle, the one proven at its point).  When every hop is vacuous there
    is nothing to search and the uniform joint is returned after one
    evaluation, with value and upper value +inf.
    """
    free = _free_labels(spec, participating)
    sizes = tuple(spec.input_sizes[int(v[1:])] for v in free)
    dim = int(np.prod(sizes))
    if dim > MAX_CELLS:
        raise TooLarge(f"input joint over {free} has {dim} cells "
                       f"(cap {MAX_CELLS})")
    evaluate = _hop_evaluator(spec, hops)
    # a simplex point fills the cells of the full input joint (channel
    # order, flat) where every input outside ``free`` is at symbol 0
    coords = np.zeros((len(spec.input_sizes), dim), dtype=np.intp)
    coords[[int(v[1:]) for v in free]] = np.indices(sizes).reshape(-1, dim)
    cells = np.ravel_multi_index(coords, spec.input_sizes)
    ncells = int(np.prod(spec.input_sizes))
    live = [k for k, den in enumerate(dens) if den > ZERO_ENTROPY_TOL]
    live_dens = np.array([dens[k] for k in live])

    def full(points: np.ndarray) -> np.ndarray:
        rows = np.zeros((len(points), ncells))
        rows[:, cells] = points
        return rows

    def numerators(points: np.ndarray) -> np.ndarray:
        return evaluate(full(points))

    def objective(points: np.ndarray) -> np.ndarray:
        """The smallest non-vacuous hop ratio at each simplex point."""
        return (numerators(points)[:, live] / live_dens).min(axis=1)

    def live_ratios(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The non-vacuous hop ratios at each simplex point and their
        gradients there."""
        nums, grads = evaluate(full(points), gradient=True)
        return (nums[:, live] / live_dens,
                grads[:, live][..., cells] / live_dens[:, None])

    if not live:
        uniform = np.full(dim, 1.0 / dim)
        result = SearchResult(uniform, math.inf, 1, True, math.inf)
    elif opts.grid_step is not None:
        result = maximize_on_grid(objective, dim, opts.grid_step)
        result = dataclasses.replace(result, upper=max(
            certify(live_ratios, result.point), result.value))
    else:
        result = maximize_over_simplex(live_ratios, dim)
    best_pmf = JointPmf(free, sizes, result.point) if free else None
    terms = _hop_terms(hops, dens, numerators(result.point[None])[0])
    return best_pmf, terms, result


def _optimize_plan(spec: NetworkSpec, plan: CooperationPlan, mode: str,
                   opts: OptimizerOptions, senders: Sequence[int],
                   notes: Sequence[str] = ()) -> RateReport:
    """The report of ``plan`` at the best joint of its ``senders``' inputs."""
    hops = _hop_sets(plan, senders)
    dens = [spec.source_entropy_given(t) for t, _, _, _ in hops]
    participating = tuple(input_label(t) for t in senders)
    best_pmf, terms, result = _maximin(spec, participating, hops, dens, opts)
    return _report_from_terms(mode, plan, terms,
                              _shown_input(spec, best_pmf, participating),
                              notes=notes, converged=result.converged,
                              evals=result.evals, upper=result.upper)


def optimize_plans(spec: NetworkSpec,
                   plan: CooperationPlan | Sequence[int] | str = "auto",
                   opts: OptimizerOptions | None = None,
                   mode: str | None = None) -> list[RateReport]:
    """Optimized report of every candidate plan, in enumeration order.

    ``plan="auto"`` means every enumerated plan; otherwise the one plan
    given, in any form :func:`as_plan` reads.
    """
    opts = _options(opts)
    mode = mode or default_mode(spec)
    if isinstance(plan, str) and plan == "auto":
        plans = enumerate_plans(spec, mode)
    else:
        plans = [as_plan(plan)]
    for p in plans:
        validate_plan(spec, p, mode)
    return [_optimize_plan(spec, p, mode, opts, _senders(p, mode))
            for p in plans]


def _options(opts: OptimizerOptions | None) -> OptimizerOptions:
    """``opts``, or the defaults for None; anything else raises
    :class:`SchemaError`."""
    if opts is None:
        return OptimizerOptions()
    if not isinstance(opts, OptimizerOptions):
        raise SchemaError(f"opts must be OptimizerOptions, got {opts!r}")
    return opts


def best_report(reports: Sequence[RateReport]) -> RateReport:
    """The highest-rate report; ties go to the earliest."""
    best = reports[0]
    for report in reports[1:]:
        if report.rate > best.rate + 1e-15:
            best = report
    return best


def optimize_rate(spec: NetworkSpec,
                  plan: CooperationPlan | Sequence[int] | str = "auto",
                  opts: OptimizerOptions | None = None,
                  mode: str | None = None) -> RateReport:
    """Maximize the plan rate over the participating-input simplex.

    ``plan="auto"`` additionally maximizes over every enumerated plan; ties
    go to the earlier plan in enumeration order.  Deterministic; the report
    carries the proven upper value of the plan's optimum and its gap.
    """
    return best_report(optimize_plans(spec, plan, opts, mode))


# ---------------------------------------------------------------------------
# Converse: ordered cut-set bound and degraded capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutTerm:
    cut: int                   # cut separates terminals < cut from the rest
    upper: float               # proven upper value of the numerator's sup
    denominator: float
    ratio: float               # upper / denominator, +inf when vacuous
    input_pmf: JointPmf
    gap: float                 # upper less the numerator at input_pmf

    @property
    def numerator_sup(self) -> float:
        return self.upper

    def to_dict(self) -> dict[str, Any]:
        return {
            "cut": self.cut,
            "numerator_sup": self.numerator_sup,
            "upper": self.upper,
            "gap": self.gap,
            "denominator": self.denominator,
            "ratio": self.ratio,
            "input_pmf": _pmf_dict(self.input_pmf),
        }


@dataclass(frozen=True)
class CutsetBound:
    bound: float
    per_cut: tuple[CutTerm, ...]
    converged: bool
    evals: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "bound": self.bound,
            "per_cut": [c.to_dict() for c in self.per_cut],
            "converged": self.converged,
            "evals": self.evals,
        }


def ordered_cutset_bound(spec: NetworkSpec,
                         opts: OptimizerOptions | None = None) -> CutsetBound:
    """Upper bound from the chain cuts {T_0..T_{i-1}} vs the rest, i=1..K+1.

    Each cut's mutual information is maximized over the full joint input
    distribution (the cut argument lets senders cooperate perfectly); the
    denominator pools all side information on the receiving side.  Valid as
    a capacity upper bound when the side information chain is degraded.
    Each cut's ``numerator_sup`` is the solver's proven upper value of that
    supremum, so ``bound`` is an upper bound, not a searched value.
    """
    opts = _options(opts)
    if spec.L != 1:
        raise MultipleDestinations("ordered cut-set bound requires L=1")
    K = spec.K
    terms: list[CutTerm] = []
    total_evals = 0
    all_converged = True
    for i in range(1, K + 2):
        a = [input_label(t) for t in range(i)]
        b = [output_label(t) for t in range(i, K + 2)]
        cond = [input_label(t) for t in range(i, K + 2)]
        den = spec.sources.conditional_entropy(
            [source_label(0)],
            [source_label(t) for t in range(i, K + 2)])
        best_pmf, (term,), result = _maximin(
            spec, spec.input_labels(), [(i, a, b, cond)], [1.0], opts)
        ratio = math.inf if den <= ZERO_ENTROPY_TOL else result.upper / den
        if best_pmf is None:
            best_pmf = spec.uniform_input((input_label(0),))
        terms.append(CutTerm(i, result.upper, den, ratio, best_pmf,
                             result.upper - term.numerator))
        total_evals += result.evals
        all_converged = all_converged and result.converged
    bound = min(t.ratio for t in terms)
    return CutsetBound(bound, tuple(terms), all_converged, total_evals)


def degraded_capacity(spec: NetworkSpec,
                      opts: OptimizerOptions | None = None,
                      bound: CutsetBound | None = None) -> RateReport:
    """Source-channel capacity of a physically degraded network whose side
    information is degraded in the same order.

    Optimizes the full-participation identity plan and certifies its rate,
    a value reached at an explicit input joint, against the ordered cut-set
    bound, a proven upper value: ``certified`` means their gap is at most
    ``opts.certify_tol``.  A caller that already holds that bound, computed
    under the same ``opts``, passes it as ``bound`` instead of paying for
    the search again.
    """
    opts = _options(opts)
    if spec.L != 1:
        raise MultipleDestinations("degraded capacity requires L=1")
    degraded_channel = is_physically_degraded(spec)
    degraded_side = is_side_info_degraded(spec)
    if not degraded_channel or not degraded_side:
        missing = []
        if not degraded_channel:
            missing.append("channel")
        if not degraded_side:
            missing.append("side information")
        raise NotDegraded(f"network is not degraded in: {', '.join(missing)}")
    identity = CooperationPlan(tuple(range(spec.K + 2)))
    report = optimize_rate(spec, identity, opts)
    if bound is None:
        bound = ordered_cutset_bound(spec, opts)
    gap = bound.bound - report.rate
    certificate = {
        "achievable": report.rate,
        "bound": bound.bound,
        "gap": gap,
        "certified": bool(gap <= opts.certify_tol),
        "certify_tol": opts.certify_tol,
        "degraded_channel": True,
        "degraded_side_info": True,
        "per_cut": [c.to_dict() for c in bound.per_cut],
    }
    return dataclasses.replace(report, certificate=certificate)


# ---------------------------------------------------------------------------
# Broadcast special cases
# ---------------------------------------------------------------------------

def broadcast_rate(spec: NetworkSpec,
                   input_pmf: JointPmf | None = None) -> RateReport:
    """min_i I(X_0; Y_i) / H(S_0 | S_i) for K=0 and silent destinations,
    at ``input_pmf``, a joint over X_0 (None: uniform)."""
    if spec.K != 0 or any(spec.input_sizes[d] != 1
                          for d in spec.destinations()):
        raise NotBroadcastShape(
            "broadcast rate requires K=0 and constant destination inputs")
    plan = CooperationPlan((0,) + spec.destinations())
    return _report_at(spec, "broadcast", plan, (0,), input_pmf)


def single_relay_broadcast_capacity(spec: NetworkSpec,
                                    opts: OptimizerOptions | None = None
                                    ) -> RateReport:
    """Capacity when K=0, everyone decodes, and only terminal 1 transmits.

    sup over p(x_0, x_1) of min of I(X_0; Y_1 | X_1) / H(S_0|S_1) and
    I(X_0, X_1; Y_j) / H(S_0|S_j) for j = 2..L.  Achievability and the
    cut-set converse coincide for this shape.
    """
    opts = _options(opts)
    if spec.K != 0 or spec.L < 2:
        raise NotLemmaShape("requires K=0 and L >= 2")
    if any(spec.input_sizes[d] != 1 for d in spec.destinations()[1:]):
        raise NotLemmaShape("only terminal 1 may have a non-constant input")
    return _optimize_plan(spec, CooperationPlan((0,) + spec.destinations()),
                          MODE_BROADCAST, opts, (0, 1),
                          notes=("capacity: achievability meets the cut-set "
                                 "converse for this shape",))
