"""Exact finite-alphabet probability calculus.

A :class:`JointPmf` is a dense joint distribution over a labelled tuple of
finite-alphabet variables.  All entropies and mutual informations in the
package are computed in bits (base-2 logs), with the ``0 * log 0 = 0``
convention and zero-mass conditioning cells skipped, by one information
kernel, :class:`InformationKernel`.  It takes a batch of joints with the
batch axis first and sums each marginal with numpy's own ``sum``, which
gives every row what that row gives summed alone.  The rate engine hands
it every point its solver visits and takes each term's gradient in the
input law from the same marginals; the ``JointPmf`` methods hand it their
own joint as a batch of one row.  Kernel axes are numbered as the joint's
own.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ChainTooShort,
    NegativeMass,
    NotNormalized,
    OverlappingSets,
    ShapeMismatch,
    UnknownVariable,
)

#: Default absolute tolerance for normalization and comparison checks.
DEFAULT_TOL = 1e-9

#: Entries below this are treated as genuinely negative mass.
NEG_MASS_TOL = -1e-12


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over an ordered tuple of labelled finite variables.

    ``probs`` is stored shaped ``sizes`` in row-major order over the variable
    tuple; a flat array of matching length is accepted and reshaped.
    """

    variables: tuple[str, ...]
    sizes: tuple[int, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        variables = tuple(str(v) for v in self.variables)
        sizes = tuple(int(s) for s in self.sizes)
        if len(variables) != len(sizes):
            raise ShapeMismatch(
                f"{len(variables)} variables but {len(sizes)} sizes")
        if len(set(variables)) != len(variables):
            raise ShapeMismatch(f"duplicate variable labels in {variables}")
        if any(s < 1 for s in sizes):
            raise ShapeMismatch(f"alphabet sizes must be >= 1, got {sizes}")
        probs = np.asarray(self.probs, dtype=np.float64)
        ncells = int(np.prod(sizes)) if sizes else 1
        if probs.size != ncells:
            raise ShapeMismatch(
                f"tensor has {probs.size} entries, sizes {sizes} need {ncells}")
        probs = probs.reshape(sizes)
        probs.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "probs", probs)

    # -- basic accessors ------------------------------------------------

    def size_of(self, label: str) -> int:
        return self.sizes[self.axis_of(label)]

    def axis_of(self, label: str) -> int:
        try:
            return self.variables.index(label)
        except ValueError:
            raise UnknownVariable(
                f"variable {label!r} not in {self.variables}") from None

    def _axes_of(self, labels: Iterable[str]) -> list[int]:
        return [self.axis_of(v) for v in labels]

    # -- operations -------------------------------------------------------

    def validated(self, tol: float = DEFAULT_TOL) -> "JointPmf":
        """Check mass invariants, returning self unchanged if they hold.

        Raises NotNormalized for any NaN or infinite entry, NegativeMass for
        entries < -1e-12 and NotNormalized when the total mass deviates from
        1 by more than ``tol``.
        """
        if not np.isfinite(self.probs).all():
            raise NotNormalized("pmf has a NaN or infinite entry")
        if np.any(self.probs < NEG_MASS_TOL):
            worst = float(self.probs.min())
            raise NegativeMass(f"entry {worst} below {NEG_MASS_TOL}")
        total = float(self.probs.sum())
        if abs(total - 1.0) > tol:
            raise NotNormalized(f"mass sums to {total}, expected 1 +- {tol}")
        return self

    def _drop_axes(self, keep: Iterable[str]) -> tuple[int, ...]:
        """Axes of every variable not in ``keep``, ascending."""
        keep = set(keep)
        if not keep:
            raise UnknownVariable("keep set must be nonempty")
        for v in keep:
            self.axis_of(v)
        return tuple(i for i, v in enumerate(self.variables) if v not in keep)

    def marginalize(self, keep: Iterable[str]) -> "JointPmf":
        """Sum out every variable not in ``keep``; variable order preserved."""
        drop = self._drop_axes(keep)
        kept = tuple(v for i, v in enumerate(self.variables) if i not in drop)
        return JointPmf(kept, tuple(self.sizes[self.axis_of(v)] for v in kept),
                        self.probs.sum(axis=drop) if drop else self.probs)

    def entropy(self, targets: Iterable[str] | None = None) -> float:
        """Joint entropy H(targets) in bits (all variables if None)."""
        drop = () if targets is None else self._drop_axes(targets)
        return float(_entropy_rows(self.probs.sum(axis=drop)[None])[0])

    def conditional_entropy(self, targets: Iterable[str],
                            given: Iterable[str] = ()) -> float:
        """H(targets | given) in bits; ``given`` may be empty.

        Computed as H(targets, given) - H(given), which skips zero-mass
        conditioning cells automatically.  Tiny negative round-off is
        clamped to 0.
        """
        targets = tuple(targets)
        given = tuple(given)
        if set(targets) & set(given):
            raise OverlappingSets(
                f"targets {targets} and given {given} overlap")
        if not given:
            return self.entropy(targets)
        h = self.entropy(targets + given) - self.entropy(given)
        return float(_clamp_nonneg(np.float64(h), "conditional entropy"))

    def information_axes(self, a: Iterable[str], b: Iterable[str],
                         cond: Iterable[str] = ()) -> list[tuple[int, ...]]:
        """The axes of this joint each entropy of I(a; b | cond) sums out,
        in the order :class:`InformationKernel` takes them."""
        a, b, cond = tuple(a), tuple(b), tuple(cond)
        sets = (set(a), set(b), set(cond))
        if (sets[0] & sets[1]) or (sets[0] & sets[2]) or (sets[1] & sets[2]):
            raise OverlappingSets(f"A={a}, B={b}, cond={cond} must be disjoint")
        if not a or not b:
            raise UnknownVariable("A and B must be nonempty")
        return [self._drop_axes(keep)
                for keep in (a + cond, b + cond, a + b + cond, cond) if keep]

    def mutual_information(self, a: Iterable[str], b: Iterable[str],
                           cond: Iterable[str] = ()) -> float:
        """I(a; b | cond) in bits, clamped to be nonnegative."""
        return float(InformationKernel(self.sizes, [
            self.information_axes(a, b, cond)])(self.probs[None])[0, 0])

    def is_markov_chain(self, chain: Sequence[str],
                        tol: float = DEFAULT_TOL) -> bool:
        """True iff the listed variables form a Markov chain in order.

        For every interior position j, checks conditional independence of the
        prefix and suffix given chain[j]: the max-norm deviation of
        p(suffix | prefix, chain[j]) from p(suffix | chain[j]) must be at most
        ``tol`` over all cells with positive conditioning mass.
        """
        chain = list(chain)
        if len(chain) < 3:
            raise ChainTooShort(f"chain {chain} has fewer than 3 variables")
        if len(set(chain)) != len(chain):
            raise ChainTooShort(f"chain {chain} repeats a variable")
        for v in chain:
            self.axis_of(v)
        for j in range(1, len(chain) - 1):
            if not self.conditionally_independent(chain[:j], chain[j + 1:],
                                                  [chain[j]], tol):
                return False
        return True

    def conditionally_independent(self, a: Sequence[str], b: Sequence[str],
                                  cond: Sequence[str],
                                  tol: float = DEFAULT_TOL) -> bool:
        """True iff p(b | a, cond) == p(b | cond) wherever p(a, cond) > 0."""
        a, b, cond = tuple(a), tuple(b), tuple(cond)
        sub = self.marginalize(a + b + cond)
        # reorder axes to (a..., cond..., b...)
        order = sub._axes_of(a + cond + b)
        p = np.transpose(sub.probs, order)
        na, nc = len(a), len(cond)
        a_cells = int(np.prod(p.shape[:na])) if na else 1
        c_cells = int(np.prod(p.shape[na:na + nc])) if nc else 1
        b_cells = int(np.prod(p.shape[na + nc:]))
        p = p.reshape(a_cells, c_cells, b_cells)
        p_ac = p.sum(axis=2)                       # p(a, c)
        p_cb = p.sum(axis=0)                       # p(c, b)
        p_c = p_cb.sum(axis=1)                     # p(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond_b_given_ac = p / p_ac[:, :, None]
            cond_b_given_c = p_cb / p_c[:, None]
        mask = p_ac > 0.0                          # positive conditioning mass
        if not mask.any():
            return True
        dev = np.abs(cond_b_given_ac - cond_b_given_c[None, :, :])
        dev = np.where(mask[:, :, None], dev, 0.0)
        return bool(np.nanmax(dev) <= tol)

    def permute_symbols(self, perms: dict[str, Sequence[int]]) -> "JointPmf":
        """Relabel alphabet symbols: new[..., i, ...] = old[..., perm[i], ...]."""
        probs = self.probs
        for label, perm in perms.items():
            axis = self.axis_of(label)
            perm = np.asarray(perm, dtype=int)
            if sorted(perm.tolist()) != list(range(self.sizes[axis])):
                raise ShapeMismatch(f"{perm} is not a permutation for {label}")
            probs = np.take(probs, perm, axis=axis)
        return JointPmf(self.variables, self.sizes, probs)


def _entropy_rows(marg: np.ndarray) -> np.ndarray:
    """Entropies in bits of the B marginals in ``marg``, (B, cells...).

    numpy sums each row of the C-contiguous (B, cells) array in the
    pairwise order of that row alone.  Rows whose zero cells differ take a
    per-row path.  A NaN or infinite cell raises NotNormalized.
    """
    p = marg.reshape(len(marg), -1)
    if not np.isfinite(p).all():
        raise NotNormalized("pmf has a NaN or infinite entry")
    live = p > 0.0
    if (live == live[0]).all():
        # a boolean column index does not return C order
        pos = np.ascontiguousarray(p[:, live[0]])
        return 0.0 - (pos * np.log2(pos)).sum(axis=1)
    out = np.empty(len(p))
    for b, (row, keep) in enumerate(zip(p, live)):
        pos = row[keep]
        out[b] = 0.0 - (pos * np.log2(pos)).sum()
    return out


class InformationKernel:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) in bits, for several
    (A, B, C) at once, on batches of joints shaped ``sizes``.

    Each term is given by the axes of the joint its entropies sum out
    (``JointPmf.information_axes``), without H(C)'s when C is empty.  A
    call takes the joints batch-first, (B, sizes...), and returns (B,
    terms), clamped to be nonnegative.  Each distinct marginal is numpy's
    own sum of the batch, summed once per call, so terms sharing an
    entropy share its work.
    """

    def __init__(self, sizes: Sequence[int],
                 terms: Sequence[Sequence[tuple[int, ...]]]):
        drops = list(dict.fromkeys(tuple(d) for t in terms for d in t))
        # the same axes of the batch-first joint
        self._drops = [tuple(i + 1 for i in d) for d in drops]
        # an absent H(C) is index -1, the 0.0 a call appends
        self._terms = [[drops.index(tuple(d)) for d in t] + [-1] * (4 - len(t))
                       for t in terms]

    def __call__(self, joint: np.ndarray) -> np.ndarray:
        return self.with_gradient(joint)[0]

    def with_gradient(self, joint: np.ndarray,
                      channel: np.ndarray | None = None, inputs: int = 0
                      ) -> tuple[np.ndarray, np.ndarray | None]:
        """The (B, terms) values of a call and, given ``channel``, each
        term's gradient in the input law of every joint p(x) W(y|x).

        ``channel`` is W, shaped as the joint without its batch axis: the
        first ``inputs`` axes are x, the rest y.  The gradient of term
        I(A;B|C) at input cell x is

            -sum_y W(y|x) [log q_AC + log q_BC - log q_ABC - log q_C]

        from the marginals the values sum (the constants of each entropy's
        derivative cancel), returned (B, terms, input cells).  It satisfies
        sum_x p(x) grad(x) = I exactly, up to round-off.  A cell whose
        marginals the term divides by are zero gets +inf, an upper bound of
        the one-sided derivative there.  Values are the same bit for bit
        with or without ``channel``.
        """
        margs = [joint.sum(axis=d, keepdims=True) for d in self._drops]
        h = [_entropy_rows(m) for m in margs] + [0.0]
        values = _clamp_nonneg(np.stack(
            [h[ac] + h[bc] - h[abc] - h[c] for ac, bc, abc, c in self._terms],
            axis=1), "mutual information")
        if channel is None:
            return values, None
        outputs = tuple(range(1 + inputs, 1 + channel.ndim))
        silent = channel == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # E_k(x) = sum_y W(y|x) log2 q_k(x, y) per distinct marginal
            expect = [np.where(silent, 0.0, channel * np.log2(marg)
                               ).sum(axis=outputs) for marg in margs] + [0.0]
            grads = np.stack([-(expect[ac] + expect[bc] - expect[abc]
                                - expect[c])
                              for ac, bc, abc, c in self._terms], axis=1)
        grads = np.where(np.isnan(grads), np.inf, grads)
        return values, grads.reshape(grads.shape[:2] + (-1,))


def _clamp_nonneg(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` with round-off below 0 set to 0.0, never to -0.0, as
    ``max(0.0, v)`` does; a value below -DEFAULT_TOL raises."""
    low = values < -DEFAULT_TOL
    if low.any():
        raise NotNormalized(f"{what} computed as {float(values[low][0])}; "
                            f"pmf is inconsistent")
    return np.where(values > 0.0, values, 0.0)


# ---------------------------------------------------------------------------
# Constructors and module-level aliases for the dataclass methods.
# ---------------------------------------------------------------------------

def uniform_pmf(variables: Sequence[str], sizes: Sequence[int]) -> JointPmf:
    sizes = tuple(int(s) for s in sizes)
    n = int(np.prod(sizes))
    return JointPmf(tuple(variables), sizes, np.full(n, 1.0 / n))


def point_mass(variables: Sequence[str], sizes: Sequence[int],
               symbols: Sequence[int]) -> JointPmf:
    sizes = tuple(int(s) for s in sizes)
    probs = np.zeros(sizes)
    probs[tuple(int(s) for s in symbols)] = 1.0
    return JointPmf(tuple(variables), sizes, probs)


def product_pmf(*parts: JointPmf) -> JointPmf:
    """Independent product of disjointly-labelled pmfs."""
    variables: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    probs = np.array(1.0)
    for part in parts:
        if set(part.variables) & set(variables):
            raise OverlappingSets("product parts share variable labels")
        probs = np.multiply.outer(probs, part.probs)
        variables += part.variables
        sizes += part.sizes
    return JointPmf(variables, sizes, probs.reshape(sizes))


def random_pmf(variables: Sequence[str], sizes: Sequence[int],
               rng: np.random.Generator, *, positive: bool = False) -> JointPmf:
    """Random joint pmf; strictly positive cells when ``positive``."""
    sizes = tuple(int(s) for s in sizes)
    n = int(np.prod(sizes))
    w = rng.random(n)
    if positive:
        w += 0.05
    return JointPmf(tuple(variables), sizes, w / w.sum())


def validate(pmf: JointPmf, tol: float = DEFAULT_TOL) -> JointPmf:
    return pmf.validated(tol)


def marginalize(pmf: JointPmf, keep: Iterable[str]) -> JointPmf:
    return pmf.marginalize(keep)


def conditional_entropy(pmf: JointPmf, targets: Iterable[str],
                        given: Iterable[str] = ()) -> float:
    return pmf.conditional_entropy(targets, given)


def mutual_information(pmf: JointPmf, a: Iterable[str], b: Iterable[str],
                       cond: Iterable[str] = ()) -> float:
    return pmf.mutual_information(a, b, cond)


def is_markov_chain(pmf: JointPmf, chain: Sequence[str],
                    tol: float = DEFAULT_TOL) -> bool:
    return pmf.is_markov_chain(chain, tol)
