"""Information-core: joint pmfs, entropies, mutual information, Markov tests."""

import itertools
import math

import numpy as np
import pytest

import relaycast as rc
from relaycast.errors import (
    ChainTooShort,
    NegativeMass,
    NotNormalized,
    OverlappingSets,
    ShapeMismatch,
    UnknownVariable,
)
from relaycast.pmf import InformationKernel

from conftest import conv, h2


def make(variables, sizes, probs):
    return rc.JointPmf(tuple(variables), tuple(sizes), np.asarray(probs))


class TestValidate:
    def test_uniform_pair_accepted(self):
        pmf = make(("A", "B"), (2, 2), [0.25, 0.25, 0.25, 0.25])
        assert rc.validate(pmf) is pmf

    def test_negative_mass(self):
        pmf = make(("A", "B"), (2, 2), [0.5, 0.6, 0.0, -0.1])
        with pytest.raises(NegativeMass):
            rc.validate(pmf)

    def test_not_normalized(self):
        pmf = make(("A",), (2,), [0.5, 0.4])
        with pytest.raises(NotNormalized):
            rc.validate(pmf)

    def test_non_finite_mass(self):
        # abs(nan - 1) > tol is False, so NaN needs its own check
        for bad in ([math.nan] * 4, [0.5, 0.5, 0.0, math.inf]):
            with pytest.raises(NotNormalized):
                rc.validate(make(("A", "B"), (2, 2), bad))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make(("A",), (2,), [0.5, 0.25, 0.25])

    def test_duplicate_labels(self):
        with pytest.raises(ShapeMismatch):
            make(("A", "A"), (2, 2), [0.25] * 4)


class TestMarginalize:
    def test_uniform_pair_first(self):
        pmf = rc.uniform_pmf(("A", "B"), (2, 2))
        marg = rc.marginalize(pmf, {"A"})
        assert marg.variables == ("A",)
        np.testing.assert_allclose(marg.probs, [0.5, 0.5])

    def test_diagonal_second(self):
        pmf = make(("A", "B"), (2, 2), [0.5, 0, 0, 0.5])
        marg = rc.marginalize(pmf, {"B"})
        np.testing.assert_allclose(marg.probs, [0.5, 0.5])

    def test_keep_all_is_identity(self):
        pmf = rc.uniform_pmf(("A", "B"), (2, 3))
        marg = rc.marginalize(pmf, {"B", "A"})
        assert marg.variables == pmf.variables
        np.testing.assert_array_equal(marg.probs, pmf.probs)

    def test_unknown_variable(self):
        pmf = rc.uniform_pmf(("A",), (2,))
        with pytest.raises(UnknownVariable):
            rc.marginalize(pmf, {"Z"})

    def test_normalization_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pmf = rc.random_pmf(("A", "B", "C"), (2, 3, 2), rng)
            marg = rc.marginalize(pmf, {"A", "C"})
            assert abs(marg.probs.sum() - 1.0) <= 1e-9

    def test_marginal_array_is_the_marginal_in_label_order(self):
        pmf = rc.random_pmf(("A", "B", "C"), (2, 3, 4),
                            np.random.default_rng(2))
        for r in (1, 2, 3):
            for labels in itertools.permutations(("A", "B", "C"), r):
                marg = pmf.marginalize(labels)
                want = np.transpose(marg.probs,
                                    [marg.variables.index(v) for v in labels])
                got = pmf.marginal_array(labels)
                assert got.shape == tuple(pmf.size_of(v) for v in labels)
                assert got.tobytes() == want.tobytes()
        with pytest.raises(UnknownVariable):
            pmf.marginal_array(("A", "Z"))


def dsbs(flip):
    """Joint of (S0, S1) with S0 uniform binary, S1 = S0 xor Bern(flip)."""
    q = 1 - flip
    return make(("S0", "S1"), (2, 2),
                [0.5 * q, 0.5 * flip, 0.5 * flip, 0.5 * q])


class TestConditionalEntropy:
    def test_uniform_binary(self):
        pmf = rc.uniform_pmf(("S0",), (2,))
        assert rc.conditional_entropy(pmf, {"S0"}) == pytest.approx(1.0)

    def test_perfect_side_info(self):
        pmf = make(("S0", "S1"), (2, 2), [0.5, 0, 0, 0.5])
        assert rc.conditional_entropy(pmf, {"S0"}, {"S1"}) == pytest.approx(0.0)

    def test_dsbs_quarter(self):
        # closed-form oracle: H(S0|S1) = h2(0.25) for the symmetric pair
        assert rc.conditional_entropy(dsbs(0.25), {"S0"}, {"S1"}) == \
            pytest.approx(h2(0.25), abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSets):
            rc.conditional_entropy(dsbs(0.1), {"S0"}, {"S0", "S1"})

    def test_zero_entropy_is_positive_zero(self):
        # "clamped to 0" means +0.0, as max(0.0, v) gives it, never -0.0
        pmf = make(("A", "B"), (2, 2), [1.0, 0.0, 0.0, 0.0])
        for h in (pmf.entropy(), pmf.entropy(["A"]),
                  rc.conditional_entropy(pmf, {"A"}),
                  rc.conditional_entropy(pmf, {"A"}, {"B"}),
                  make(("A",), (2,), [1.0, 0.0]).entropy()):
            assert h == 0.0 and not np.signbit(h)

    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0, 1.0],
                                     [0.5, 0.0, 0.0, math.inf]])
    def test_non_finite_mass_raises(self, bad):
        # a `p > 0` mask would drop a NaN cell and report the rest
        pmf = make(("A", "B"), (2, 2), bad)
        for measure in (lambda: pmf.entropy(),
                        lambda: pmf.entropy(["A"]),
                        lambda: rc.conditional_entropy(pmf, {"A"}),
                        lambda: rc.conditional_entropy(pmf, {"A"}, {"B"}),
                        lambda: rc.mutual_information(pmf, {"A"}, {"B"})):
            with pytest.raises(NotNormalized, match="NaN or infinite"):
                measure()
        with pytest.raises(NotNormalized, match="NaN or infinite"):
            make(("A",), (2,), [math.nan, 1.0]).entropy()

    def test_bounds_and_conditioning(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pmf = rc.random_pmf(("A", "B", "C"), (2, 2, 3), rng)
            h_ac = rc.conditional_entropy(pmf, {"A"}, {"C"})
            h_abc = rc.conditional_entropy(pmf, {"A"}, {"B", "C"})
            assert -1e-12 <= h_ac <= math.log2(2) + 1e-9
            assert h_abc <= h_ac + 1e-9


class TestMutualInformation:
    def test_independent(self):
        pmf = rc.product_pmf(rc.uniform_pmf(("X",), (2,)),
                             rc.uniform_pmf(("Y",), (3,)))
        assert rc.mutual_information(pmf, {"X"}, {"Y"}) == pytest.approx(0.0)

    def test_bsc_capacity_form(self):
        # uniform input through BSC(0.1): I(X;Y) = 1 - h2(0.1)
        p = 0.1
        pmf = make(("X", "Y"), (2, 2),
                   [0.5 * (1 - p), 0.5 * p, 0.5 * p, 0.5 * (1 - p)])
        assert rc.mutual_information(pmf, {"X"}, {"Y"}) == \
            pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_chain_rule_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            pmf = rc.random_pmf(("X0", "X1", "Y"), (2, 2, 2), rng)
            lhs = rc.mutual_information(pmf, {"X0", "X1"}, {"Y"})
            rhs = rc.mutual_information(pmf, {"X1"}, {"Y"}) + \
                rc.mutual_information(pmf, {"X0"}, {"Y"}, {"X1"})
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pmf = rc.random_pmf(("A", "B", "C"), (3, 2, 2), rng)
            ab = rc.mutual_information(pmf, {"A"}, {"B"}, {"C"})
            ba = rc.mutual_information(pmf, {"B"}, {"A"}, {"C"})
            assert ab >= 0.0
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_disjointness_required(self):
        pmf = rc.uniform_pmf(("A", "B"), (2, 2))
        with pytest.raises(OverlappingSets):
            rc.mutual_information(pmf, {"A"}, {"A", "B"})


def cascade(flips):
    """Explicit Markov cascade S0 -> S1 -> ... with the given flips."""
    k = len(flips)
    probs = np.zeros((2,) * (k + 1))
    for idx in np.ndindex(probs.shape):
        p = 0.5
        for i, f in enumerate(flips):
            p *= f if idx[i] != idx[i + 1] else 1 - f
        probs[idx] = p
    return make(tuple(f"S{i}" for i in range(k + 1)), (2,) * (k + 1), probs)


class TestMarkovChain:
    def test_cascade_is_markov(self):
        pmf = cascade([0.1, 0.2])
        assert rc.is_markov_chain(pmf, ["S0", "S1", "S2"])

    def test_bypass_dependence_fails(self):
        # Y = X, W independent coin: X -> W -> Y does not hold
        probs = np.zeros((2, 2, 2))
        for x in range(2):
            for w in range(2):
                probs[x, w, x] = 0.25
        pmf = make(("X", "W", "Y"), (2, 2, 2), probs)
        assert not rc.is_markov_chain(pmf, ["X", "W", "Y"])

    def test_dsbs_cascade_tight_tolerance(self):
        pmf = cascade([0.1, 0.2])
        assert rc.is_markov_chain(pmf, ["S0", "S1", "S2"], tol=1e-9)
        # independent verification by direct conditional-independence check
        joint = pmf.probs
        for s1 in range(2):
            p_s1 = joint[:, s1, :].sum()
            cond_both = joint[:, s1, :] / p_s1
            p0 = cond_both.sum(axis=1)      # p(s0|s1)
            p2 = cond_both.sum(axis=0)      # p(s2|s1)
            np.testing.assert_allclose(cond_both, np.outer(p0, p2),
                                       atol=1e-12)

    def test_chain_too_short(self):
        pmf = rc.uniform_pmf(("A", "B"), (2, 2))
        with pytest.raises(ChainTooShort):
            rc.is_markov_chain(pmf, ["A", "B"])

    def test_random_cascades_pass_and_injections_fail(self):
        rng = np.random.default_rng(99)
        tol = 1e-9
        for _ in range(25):
            # random cascade of conditionals over ternary alphabets
            p0 = rng.random(3) + 0.05
            p0 /= p0.sum()
            t1 = rng.random((3, 3)) + 0.05
            t1 /= t1.sum(axis=1, keepdims=True)
            t2 = rng.random((3, 3)) + 0.05
            t2 /= t2.sum(axis=1, keepdims=True)
            probs = p0[:, None, None] * t1[:, :, None] * t2[None, :, :]
            pmf = make(("A", "B", "C"), (3, 3, 3), probs)
            assert rc.is_markov_chain(pmf, ["A", "B", "C"], tol)
            # inject a direct A-C dependence (mass on the A == C diagonal,
            # bypassing B) with total variation >= 10*tol
            direct = np.zeros((3, 3, 3))
            for a in range(3):
                direct[a, :, a] = p0[a] * t1[a]
            bumped = 0.999 * probs + 0.001 * direct / direct.sum()
            bumped /= bumped.sum()
            pmf2 = make(("A", "B", "C"), (3, 3, 3), bumped)
            assert not rc.is_markov_chain(pmf2, ["A", "B", "C"], tol)

    def test_markov_after_symbol_permutation(self):
        pmf = cascade([0.15, 0.3])
        permuted = pmf.permute_symbols({"S1": [1, 0]})
        assert rc.is_markov_chain(permuted, ["S0", "S1", "S2"])


def test_entropy_chain_rule_against_convolution():
    # cascade flips 0.1 then 0.2 gives an end-to-end flip of conv(0.1, 0.2)
    pmf = cascade([0.1, 0.2])
    end = rc.conditional_entropy(pmf, {"S0"}, {"S2"})
    assert end == pytest.approx(h2(conv(0.1, 0.2)), abs=1e-12)


def test_numpy_row_sums_match_one_dimensional_sums():
    # the batched entropy kernel relies on numpy summing each row of a
    # C-contiguous (B, n) array in the same pairwise order as the row alone;
    # an installed numpy that changes either order fails here
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        rows = rng.random((5, n)) * rng.choice([1e-3, 1.0, 7.0], (5, 1))
        assert rows.flags.c_contiguous
        assert rows.sum(axis=1).tolist() == [row.sum() for row in rows]


@pytest.mark.parametrize("shape", [
    (2, 2, 2, 1, 2, 2, 2),     # net-d's joint: a unit axis inside runs
    (3, 3, 1, 3, 3),           # ternary runs of 9 and 27 cells
    (3, 1, 3, 3, 3, 3),        # runs of 81 and 243 cells (split in halves)
    (130, 65),                 # runs of 65, 130 and 8,450 cells
])
def test_batch_sums_match_row_sums(shape):
    # the information kernel takes each marginal as numpy's sum of the
    # batch-first joint, (rows,) + shape, and relies on every row of that
    # sum being what the row gives summed alone; an installed numpy that
    # sums a batch in another order fails here
    rng = np.random.default_rng(13)
    axes = range(len(shape))
    for rows in (1, 7, 129):
        probs = rng.random((rows,) + shape) * rng.choice(
            [1e-3, 1.0, 7.0], (rows,) + (1,) * len(shape))
        probs[probs < 0.2] = 0.0
        probs[rows // 2] = 0.0
        for drop in itertools.chain.from_iterable(
                itertools.combinations(axes, r)
                for r in range(len(shape) + 1)):
            batch = tuple(a + 1 for a in drop)
            got = probs.sum(axis=batch, keepdims=True).reshape(rows, -1)
            want = np.array([row.sum(axis=drop) for row in probs]).reshape(
                rows, -1)
            assert np.array_equal(got, want), (
                f"numpy {np.__version__} sums {(rows,) + shape} over axes "
                f"{batch} in an order that differs from each row's own")
        # the gradient's sum over the output axes: the joint times the log
        # of a marginal broadcast against it, summed over trailing axes
        cells = probs * np.log2(1.0 + probs.sum(axis=1, keepdims=True))
        for inputs in axes:
            outputs = tuple(range(inputs, len(shape)))
            got = cells.sum(axis=tuple(a + 1 for a in outputs))
            want = np.array([row.sum(axis=outputs) for row in cells])
            assert np.array_equal(got, want), (
                f"numpy {np.__version__} sums {(rows,) + shape} over axes "
                f"{outputs} in an order that differs from each row's own")


def test_entropy_rows_match_joint_pmf_entropy():
    # shared zero cells (one path) and differing ones (the per-row path)
    rng = np.random.default_rng(12)
    batch = rng.random((6, 2, 3, 2))
    batch[:3, 1, 2, :] = 0.0
    for rows in (batch[:3], batch):
        rows = rows / rows.sum(axis=(1, 2, 3), keepdims=True)
        for drop in [(), (0,), (1, 2), (0, 2)]:
            keep = [v for i, v in enumerate("ABC") if i not in drop]
            got = rc.pmf._entropy_rows(rows.sum(
                axis=tuple(a + 1 for a in drop), keepdims=True))
            got = got.tolist()
            assert got == [make("ABC", (2, 3, 2), row).entropy(keep)
                           for row in rows]


@pytest.mark.parametrize("cond", [(), ("C",)])
def test_kernel_gradient_in_the_input_law(cond):
    # joints p(a, c) W(y, z | a, c): the gradient of I(A; Y | cond) in
    # p(a, c) sums back to the information (<grad, p> = I), matches
    # central differences along every direction inside the simplex, and
    # leaves the values bit for bit as a call without it gives them
    rng = np.random.default_rng(len(cond))
    law = rng.dirichlet(np.ones(6), size=(3, 2)).reshape(3, 2, 3, 2)
    joint = rc.JointPmf(("A", "C", "Y", "Z"), law.shape, law / 6)
    kernel = InformationKernel(law.shape, [
        joint.information_axes(["A"], ["Y"], cond),
        joint.information_axes(["A", "C"], ["Z"])])
    points = rng.dirichlet(np.ones(6), size=4)

    def batch(rows):
        return law * rows.reshape(len(rows), 3, 2, 1, 1)
    values, grads = kernel.with_gradient(batch(points), law, 2)
    assert values.tolist() == kernel(batch(points)).tolist()
    assert np.allclose(np.einsum("btx,bx->bt", grads, points), values,
                       rtol=0, atol=1e-14)
    h = 1e-6
    for a, b in itertools.combinations(range(6), 2):
        move = np.zeros(6)
        move[a], move[b] = h, -h
        slope = (kernel(batch(points + move)) - kernel(batch(points - move))
                 ) / (2 * h)
        want = (grads[..., a] - grads[..., b])
        assert np.allclose(slope, want, rtol=0, atol=1e-7)
