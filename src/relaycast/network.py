"""Relay-broadcast network model.

A network has K relays and L destinations.  Terminal 0 observes the source;
terminals 1..K are relays; terminals K+1..K+L are destinations.  Channel
inputs are labelled ``X0..X{K+L}`` (size-1 alphabets encode terminals that
never transmit), channel outputs ``Y1..Y{K+L}``, and the source/side
information joint is over ``S0..S{K+L}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from . import pmf as pmflib
from .errors import (
    AlphabetMismatch,
    MultipleDestinations,
    NegativeMass,
    NotNormalized,
    ParseError,
    SchemaError,
    ShapeMismatch,
)
from .pmf import DEFAULT_TOL, JointPmf, point_mass, product_pmf, uniform_pmf


def input_label(i: int) -> str:
    return f"X{i}"


def output_label(i: int) -> str:
    return f"Y{i}"


def source_label(i: int) -> str:
    return f"S{i}"


@dataclass(frozen=True)
class ChannelModel:
    """Memoryless channel conditional p(y_1..y_J | x_0..x_I).

    The tensor is stored input-tuple-major (input axes first), so each output
    slice ``probs[x_tuple]`` is a contiguous pmf over the output tuple.
    """

    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        input_sizes = tuple(int(s) for s in self.input_sizes)
        output_sizes = tuple(int(s) for s in self.output_sizes)
        probs = np.asarray(self.probs, dtype=np.float64)
        shape = input_sizes + output_sizes
        ncells = int(np.prod(shape))
        if probs.size != ncells:
            raise ShapeMismatch(
                f"channel tensor has {probs.size} entries, shape {shape} "
                f"needs {ncells}")
        probs = probs.reshape(shape)
        probs.flags.writeable = False
        object.__setattr__(self, "input_sizes", input_sizes)
        object.__setattr__(self, "output_sizes", output_sizes)
        object.__setattr__(self, "probs", probs)

    def validated(self, tol: float = DEFAULT_TOL) -> "ChannelModel":
        """Every input tuple must index a valid output pmf."""
        if not np.isfinite(self.probs).all():
            raise NotNormalized("channel conditional has a NaN or infinite "
                                "entry")
        if np.any(self.probs < pmflib.NEG_MASS_TOL):
            raise NegativeMass("channel conditional has negative entries")
        n_in = int(np.prod(self.input_sizes))
        sums = self.probs.reshape(n_in, -1).sum(axis=1)
        bad = np.abs(sums - 1.0) > tol
        if bad.any():
            idx = int(np.argmax(bad))
            raise NotNormalized(
                f"channel row for input tuple #{idx} sums to {sums[idx]}")
        return self

    @property
    def num_inputs(self) -> int:
        return len(self.input_sizes)

    @property
    def num_outputs(self) -> int:
        return len(self.output_sizes)

    def input_labels(self) -> tuple[str, ...]:
        return tuple(input_label(i) for i in range(self.num_inputs))

    def output_labels(self) -> tuple[str, ...]:
        return tuple(output_label(i + 1) for i in range(self.num_outputs))


def compose_joint(input_pmf: JointPmf, channel: ChannelModel) -> JointPmf:
    """Joint p(x, y) = p_in(x) * p_ch(y | x) over (X..., Y...) labels.

    ``input_pmf`` must cover exactly the channel's input variables with
    matching alphabet sizes (any variable order; axes are aligned here).
    """
    want = channel.input_labels()
    if set(input_pmf.variables) != set(want):
        raise AlphabetMismatch(
            f"input pmf covers {input_pmf.variables}, channel needs {want}")
    aligned = np.transpose(input_pmf.probs,
                           [input_pmf.axis_of(v) for v in want])
    if aligned.shape != channel.input_sizes:
        raise AlphabetMismatch(
            f"input sizes {aligned.shape} != channel {channel.input_sizes}")
    extra = (1,) * channel.num_outputs
    joint = aligned.reshape(channel.input_sizes + extra) * channel.probs
    return JointPmf(want + channel.output_labels(),
                    channel.input_sizes + channel.output_sizes, joint)


@dataclass(frozen=True)
class NetworkSpec:
    """K relays, L destinations, channel law and source/side-info law."""

    K: int
    L: int
    channel: ChannelModel
    sources: JointPmf
    name: str | None = None

    def __post_init__(self):
        K, L = int(self.K), int(self.L)
        if K < 0:
            raise SchemaError(f"K must be >= 0, got {K}")
        if L < 1:
            raise SchemaError(f"L must be >= 1, got {L}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)
        n = K + L
        if self.channel.num_inputs != n + 1:
            raise SchemaError(
                f"channel declares {self.channel.num_inputs} inputs, "
                f"K+L+1 = {n + 1} required")
        if self.channel.num_outputs != n:
            raise SchemaError(
                f"channel declares {self.channel.num_outputs} outputs, "
                f"K+L = {n} required")
        want_sources = tuple(source_label(i) for i in range(n + 1))
        if self.sources.variables != want_sources:
            raise SchemaError(
                f"sources must be over {want_sources}, "
                f"got {self.sources.variables}")
        self.channel.validated()
        self.sources.validated()

    # -- labels and sizes ---------------------------------------------------

    @property
    def num_terminals(self) -> int:
        return self.K + self.L + 1

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.channel.input_sizes

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return self.channel.output_sizes

    def destinations(self) -> tuple[int, ...]:
        return tuple(range(self.K + 1, self.K + self.L + 1))

    def input_labels(self) -> tuple[str, ...]:
        return self.channel.input_labels()

    def source_entropy_given(self, terminal: int) -> float:
        """H(S0 | S_terminal) in bits."""
        return self.sources.conditional_entropy(
            [source_label(0)], [source_label(terminal)])

    # -- input pmf helpers ----------------------------------------------------

    def uniform_input(self, labels: Iterable[str] | None = None) -> JointPmf:
        """Uniform joint over the given input labels (default: all inputs)."""
        labels = tuple(labels) if labels is not None else self.input_labels()
        sizes = tuple(self.input_sizes[int(v[1:])] for v in labels)
        return uniform_pmf(labels, sizes)

    def extend_input(self, partial: JointPmf | None,
                     participating: Iterable[str] | None = None) -> JointPmf:
        """Full input joint: ``partial`` times point mass at symbol 0 elsewhere.

        ``partial`` (default uniform over ``participating``) must be a valid
        pmf (NotNormalized or NegativeMass otherwise) and only cover declared
        input labels with matching sizes; every non-covered input with
        alphabet size > 1 is pinned to the constant symbol 0.
        """
        all_labels = self.input_labels()
        if partial is None:
            if participating is None:
                raise AlphabetMismatch("no input pmf and no participant set")
            live = tuple(v for v in participating
                         if self.input_sizes[int(v[1:])] > 1)
            partial = self.uniform_input(live) if live else None
        if partial is not None:
            partial.validated()
            for v in partial.variables:
                if v not in all_labels:
                    raise AlphabetMismatch(f"{v} is not an input of this network")
                if partial.size_of(v) != self.input_sizes[int(v[1:])]:
                    raise AlphabetMismatch(
                        f"{v} has size {partial.size_of(v)}, network declares "
                        f"{self.input_sizes[int(v[1:])]}")
        missing = [v for v in all_labels
                   if partial is None or v not in partial.variables]
        parts = [] if partial is None else [partial]
        if missing:
            parts.append(product_pmf(*[
                point_mass([v], [self.input_sizes[int(v[1:])]], [0])
                for v in missing]))
        return product_pmf(*parts)

    def to_document(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "K": self.K,
            "L": self.L,
            "input_alphabets": list(self.input_sizes),
            "output_alphabets": list(self.output_sizes),
            "source_alphabets": list(self.sources.sizes),
            "channel": self.channel.probs.reshape(-1).tolist(),
            "sources": self.sources.probs.reshape(-1).tolist(),
        }
        if self.name:
            doc["name"] = self.name
        return doc


# ---------------------------------------------------------------------------
# Degradedness predicates
# ---------------------------------------------------------------------------

def is_physically_degraded(spec: NetworkSpec, tol: float = 1e-6) -> bool:
    """True iff (X_0..X_{i-1}) -> (Y_i, X_i..X_K) -> (Y_{i+1}..Y_{K+1}) is a
    Markov chain for every i = 1..K.

    The predicate quantifies over the channel conditional alone, so it is
    tested under two witness input distributions: the uniform joint and one
    seeded strictly positive random joint.  Both must pass.
    """
    if spec.L != 1:
        raise MultipleDestinations(
            f"physical degradedness is defined for L=1, network has L={spec.L}")
    K = spec.K
    if K == 0:
        return True
    witnesses = [spec.uniform_input()]
    rng = np.random.default_rng(20240917)
    witnesses.append(pmflib.random_pmf(spec.input_labels(), spec.input_sizes,
                                       rng, positive=True))
    for input_pmf in witnesses:
        joint = compose_joint(input_pmf, spec.channel)
        for i in range(1, K + 1):
            head = [input_label(t) for t in range(i)]
            mid = [output_label(i)] + [input_label(t) for t in range(i, K + 1)]
            tail = [output_label(t) for t in range(i + 1, K + 2)]
            if not joint.conditionally_independent(head, tail, mid, tol):
                return False
    return True


def is_side_info_degraded(spec: NetworkSpec, tol: float = 1e-9) -> bool:
    """True iff S_0 -> S_1 -> ... -> S_{K+L} forms a Markov chain."""
    chain = [source_label(i) for i in range(spec.num_terminals)]
    if len(chain) < 3:
        return True
    return spec.sources.is_markov_chain(chain, tol)


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("K", "L", "input_alphabets", "output_alphabets",
                    "source_alphabets", "channel", "sources")


def whole_number(value: Any, what: str) -> int:
    """``value`` as an int; booleans and numbers with a fractional part,
    which ``int()`` would silently truncate, raise :class:`SchemaError`."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise SchemaError(f"{what} must be a whole number, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be a whole number, got {value!r}"
                          ) from exc


def _tensor(document: dict[str, Any], field: str) -> np.ndarray:
    """A flat tensor field as float64; non-numeric or ragged entries raise
    :class:`SchemaError`."""
    try:
        return np.asarray(document[field], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {field} tensor: {exc}") from exc


def load_network(document: str | dict[str, Any]) -> NetworkSpec:
    """Parse and fully validate a JSON network document.

    Flat tensors are row-major with axis order ``[x_0..x_{K+L}, y_1..y_{K+L}]``
    for the channel and ``[S_0..S_{K+L}]`` for the sources.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError(f"document must be an object, got {type(document)}")
    for key in _REQUIRED_FIELDS:
        if key not in document:
            raise SchemaError(f"missing required field {key!r}")
    K = whole_number(document["K"], "K")
    L = whole_number(document["L"], "L")
    try:
        in_sizes, out_sizes, src_sizes = (
            tuple(whole_number(s, f"an entry of {key}") for s in document[key])
            for key in ("input_alphabets", "output_alphabets",
                        "source_alphabets"))
    except TypeError as exc:
        raise SchemaError(f"malformed size field: {exc}") from exc
    n = K + L
    if len(in_sizes) != n + 1:
        raise SchemaError(
            f"input_alphabets needs K+L+1 = {n + 1} entries, got {len(in_sizes)}")
    if len(out_sizes) != n:
        raise SchemaError(
            f"output_alphabets needs K+L = {n} entries, got {len(out_sizes)}")
    if len(src_sizes) != n + 1:
        raise SchemaError(
            f"source_alphabets needs K+L+1 = {n + 1} entries, got {len(src_sizes)}")
    channel = ChannelModel(in_sizes, out_sizes, _tensor(document, "channel"))
    sources = JointPmf(tuple(source_label(i) for i in range(n + 1)), src_sizes,
                       _tensor(document, "sources"))
    return NetworkSpec(K=K, L=L, channel=channel, sources=sources,
                       name=document.get("name"))
