"""Typical sets, binning, and robust joint typicality."""

import math

import numpy as np
import pytest

import relaycast as rc
from relaycast.errors import (
    DegenerateTypicalSet,
    LengthMismatch,
    SchemaError,
    TooLarge,
    UnknownVariable,
)
from relaycast import typicality
from relaycast.seeds import STREAM_BINS, child_rng
from relaycast.typicality import TypicalityTest, all_sequences


class TestTypicalSourceCodebook:
    def test_uniform_binary_m4(self):
        # oracle: enumerate all 16 words, keep those with 1..3 ones
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 4, 0.5)
        assert cb.M == 14
        ones = cb.sequences.sum(axis=1)
        assert set(ones.tolist()) == {1, 2, 3}

    def test_point_mass_source(self):
        cb = rc.build_typical_source_codebook(np.array([1.0, 0.0]), 5, 0.5)
        assert cb.M == 1
        np.testing.assert_array_equal(cb.sequences[0], np.zeros(5))

    def test_degenerate_empty_set(self):
        with pytest.raises(DegenerateTypicalSet):
            rc.build_typical_source_codebook(np.array([0.5, 0.5]), 5, 0.0)

    def test_enumeration_cap(self):
        with pytest.raises(TooLarge):
            rc.build_typical_source_codebook(np.array([0.5, 0.5]), 21, 1.0)

    def test_alphabet_beyond_int8(self):
        # symbols are stored as int8: 130 symbols would wrap to -128..127
        with pytest.raises(TooLarge):
            rc.build_typical_source_codebook(np.full(130, 1 / 130), 1, 300.0)
        assert all_sequences(128, 1).max() == 127

    def test_cardinality_bound(self):
        # M <= 2^{m (H + eps)} up to rounding
        for marg, m, eps in [(np.array([0.5, 0.5]), 8, 0.5),
                             (np.array([0.8, 0.2]), 10, 0.8),
                             (np.array([0.5, 0.3, 0.2]), 6, 1.0)]:
            cb = rc.build_typical_source_codebook(marg, m, eps)
            h = -(marg[marg > 0] * np.log2(marg[marg > 0])).sum()
            assert cb.M <= math.ceil(2 ** (m * (h + eps)))

    def test_deterministic_order(self):
        a = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 6, 0.6)
        b = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 6, 0.6)
        np.testing.assert_array_equal(a.sequences, b.sequences)
        # lexicographic
        keys = [tuple(s) for s in a.sequences]
        assert keys == sorted(keys)


class TestAssignBins:
    def test_zero_rate_single_bin(self):
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 6, 1.0)
        bins = rc.assign_bins(cb, 0.0, seed=3)
        assert bins.num_bins == 1
        assert set(bins.map.tolist()) == {0}

    def test_same_seed_same_map(self):
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 6, 1.0)
        a = rc.assign_bins(cb, 0.7, seed=42)
        b = rc.assign_bins(cb, 0.7, seed=42)
        np.testing.assert_array_equal(a.map, b.map)
        c = rc.assign_bins(cb, 0.7, seed=43)
        assert not np.array_equal(a.map, c.map)

    def test_high_rate_mostly_singletons(self):
        # birthday bound: expected colliding-pair count ~ M^2 / (2 M_k)
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 8, 3.0)
        collisions = []
        for seed in range(20):
            bins = rc.assign_bins(cb, 1.5, seed=seed)   # 4096 bins, M=256
            counts = np.bincount(bins.map, minlength=bins.num_bins)
            collisions.append(int((counts > 1).sum()))
        expected = cb.M ** 2 / (2 * 4096)
        assert expected / 2 <= np.mean(collisions) <= expected * 2

    @pytest.mark.parametrize("rate", [3.5, 1e6, float("inf"),
                                      float("nan"), -0.1])
    def test_rate_beyond_cap_or_invalid(self, rate):
        # m=6: rate 3.5 asks for 2^21 bins, one power past ENUMERATION_CAP;
        # NaN is no number at all
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 6, 1.0)
        with pytest.raises(SchemaError if math.isnan(rate) else TooLarge):
            rc.assign_bins(cb, rate, seed=0)

    def test_distinct_terminals_independent(self):
        cb = rc.build_typical_source_codebook(np.array([0.5, 0.5]), 8, 3.0)
        a = rc.assign_bins(cb, 1.0, seed=5, terminal=1)
        b = rc.assign_bins(cb, 1.0, seed=5, terminal=2)
        assert not np.array_equal(a.map, b.map)


@pytest.mark.parametrize("M", [1, 64, 99, 4096])
def test_assign_bins_is_numpy_integers(M):
    """``assign_bins`` cuts its map from raw words by the rule the trial
    engine also draws by; numpy's stream policy (NEP 19) fixes the raw
    words but not the ``integers`` algorithm, so the map is pinned against
    numpy's own bounded integers of the same stream."""
    m = 20
    cb = typicality.SourceCodebook(m=m, epsilon=0.5, alphabet=2,
                                   sequences=np.zeros((M, m), dtype=np.int8))
    for num_bins in (1, 2, 32, 128, 4096, 2 ** 20):
        rate = math.log2(num_bins) / m
        for trial, terminal in ((None, 2), (3, 2), (2 ** 32 - 1, 2 ** 40)):
            got = rc.assign_bins(cb, rate, seed=11, terminal=terminal,
                                 trial=trial)
            path = (() if trial is None else (trial,)) + (STREAM_BINS,
                                                          terminal)
            want = child_rng(11, *path).integers(0, num_bins, M)
            assert got.num_bins == num_bins
            assert got.map.dtype == want.dtype == np.int64
            assert np.array_equal(got.map, want), (num_bins, trial)


class TestJointTypicality:
    def test_law_of_large_numbers(self):
        ref = rc.uniform_pmf(("A", "B"), (2, 2))
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(1000):
            flat = rng.integers(0, 4, size=200)
            if rc.joint_typicality({"A": flat // 2, "B": flat % 2}, ref, 0.3):
                hits += 1
        assert hits / 1000 >= 0.95

    def test_constant_sequence_atypical(self):
        ref = rc.uniform_pmf(("A",), (2,))
        assert not rc.joint_typicality({"A": np.zeros(100, dtype=int)},
                                       ref, 0.5)

    def test_zero_probability_cell_rejected(self):
        diag = rc.JointPmf(("A", "B"), (2, 2), [0.5, 0, 0, 0.5])
        a = np.array([0, 1, 0, 1] * 25)
        b = a.copy()
        b[0] ^= 1           # one forbidden (0,1) cell
        assert rc.joint_typicality({"A": a, "B": a}, diag, 0.5)
        assert not rc.joint_typicality({"A": a, "B": b}, diag, 0.5)

    def test_length_mismatch(self):
        ref = rc.uniform_pmf(("A", "B"), (2, 2))
        with pytest.raises(LengthMismatch):
            rc.joint_typicality({"A": [0, 1], "B": [0, 1, 0]}, ref, 0.5)

    def test_unknown_label(self):
        ref = rc.uniform_pmf(("A",), (2,))
        with pytest.raises(UnknownVariable):
            rc.joint_typicality({"Z": [0, 1]}, ref, 0.5)

    def test_matches_exact_definition(self):
        # cross-check against a direct cell-by-cell evaluation
        rng = np.random.default_rng(9)
        ref = rc.random_pmf(("A", "B"), (2, 3), rng, positive=True)
        for _ in range(200):
            n = 40
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 3, n)
            got = rc.joint_typicality({"A": a, "B": b}, ref, 0.4)
            want = True
            for i in range(2):
                for j in range(3):
                    freq = int(((a == i) & (b == j)).sum())
                    p = ref.probs[i, j]
                    if abs(freq - n * p) > 0.4 * n * p + 1e-9:
                        want = False
            assert got == want


def reference_check_batch(test, candidates, fixed_flat):
    """The int64 bincount form that ``check_batch`` must reproduce."""
    c = candidates.shape[0]
    idx = candidates.astype(np.int64) * test.tail + fixed_flat
    idx += np.arange(c, dtype=np.int64)[:, None] * test.ncells
    counts = np.bincount(idx.reshape(-1), minlength=c * test.ncells)
    counts = counts.reshape(c, test.ncells)
    return ((counts >= test.lo) & (counts <= test.hi)).all(axis=1)


def _check_batch_cases():
    """(test, candidates, fixed_flat) over the sizes the simulators use,
    both sides of the size rule between the two count forms."""
    rng = np.random.default_rng(21)
    sizes = (2, 2, 2, 2)
    labels = ("A", "B", "C", "D")
    probs = rng.random(16)
    probs[[1, 6, 11]] = 0.0                      # zero-probability cells
    ref = rc.JointPmf(labels, sizes, probs / probs.sum())
    cases = []
    for lead in (1, 2, 3):                       # lead > 1: mixed radix
        for c, n, eps in [(1, 24, 3.0), (128, 7, 4.0), (128, 7, 0.3),
                          (1024, 8, 0.5), (4096, 24, 3.0), (4096, 12, 0.5),
                          (4096, 3, 1.0)]:
            test = TypicalityTest(ref, labels, n, eps, lead=lead)
            lead_size = test.ncells // test.tail
            tail = rng.integers(0, test.tail, n)
            cand = rng.integers(0, lead_size, (c, n)).astype(np.int8)
            cases.append((test, cand, tail))
            # tail values absent: every position carries the same value
            cases.append((test, cand, np.full(n, test.tail - 1)))
    # candidates a few flips from a diagonal reference: many pass
    diag = rc.JointPmf(("A", "B"), (2, 2), [0.45, 0.05, 0.05, 0.45])
    for c, n in [(1, 24), (128, 7), (4096, 24)]:
        test = TypicalityTest(diag, ("A", "B"), n, 0.8)
        y = rng.integers(0, 2, n)
        flips = rng.random((c, n)) < 0.1
        cases.append((test, (y ^ flips).astype(np.int8), y))
    # four 4-symbol labels: 256 cells, so a folded index is int16.  The
    # mass sits on the diagonal (s, s, s, s), whose index over k labels is
    # s (4^k - 1) / 3, and candidates stray from it at a tenth of places
    quad = np.full(256, 0.1 / 252)
    quad[np.arange(4) * 85] = 0.9 / 4
    ref = rc.JointPmf(labels, (4, 4, 4, 4), quad)
    for lead in (1, 2):
        for c, n in [(128, 7), (4096, 12), (4096, 64)]:
            test = TypicalityTest(ref, labels, n, 3.0, lead=lead)
            lead_size = test.ncells // test.tail
            s = rng.integers(0, 4, n)
            stray = rng.random((c, n)) < 0.1
            cand = np.where(stray, rng.integers(0, lead_size, (c, n)),
                            s * (lead_size - 1) // 3).astype(np.int8)
            cases.append((test, cand, s * (test.tail - 1) // 3))
    # a point mass over a long block: counts above 255 must not wrap
    mass = rc.JointPmf(("A", "B"), (2, 2), [1.0, 0.0, 0.0, 0.0])
    test = TypicalityTest(mass, ("A", "B"), 300, 0.1)
    cand = (rng.random((64, 300)) < 0.002).astype(np.int8)
    cases.append((test, cand, np.zeros(300, dtype=np.int64)))
    return cases


class TestCheckBatch:
    def test_matches_bincount_reference(self):
        passing, cellwise = 0, set()
        for test, cand, fixed in _check_batch_cases():
            want = reference_check_batch(test, cand, fixed)
            np.testing.assert_array_equal(test.check_batch(cand, fixed), want)
            np.testing.assert_array_equal(
                test.check_batch(cand.astype(np.int64), fixed), want)
            passing += int(want.sum())
            cellwise.add(cand.size >= typicality.CELLWISE_SYMBOLS_PER_CELL
                         * test.ncells)
        assert passing > 100          # the grid exercises both outcomes
        assert cellwise == {False, True}      # and both count forms

    def test_chunked_mask_equals_unchunked(self, monkeypatch):
        cases = _check_batch_cases()
        whole = [test.check_batch(cand, fixed) for test, cand, fixed in cases]
        for cap in (1, 240_000):      # 1 row; 98 to 1,578 rows a chunk
            monkeypatch.setattr(typicality, "CHECK_BATCH_BYTES", cap)
            for (test, cand, fixed), want in zip(cases, whole):
                np.testing.assert_array_equal(test.check_batch(cand, fixed),
                                              want)

    def test_criterion_6_batch_is_one_chunk(self, monkeypatch):
        calls = []
        check = TypicalityTest._check

        def counted(self, candidates, *rest):
            calls.append(candidates.shape)
            return check(self, candidates, *rest)
        monkeypatch.setattr(TypicalityTest, "_check", counted)
        ref = rc.uniform_pmf(("X", "Y"), (2, 2))
        test = TypicalityTest(ref, ("X", "Y"), 24, 3.0)
        test.check_batch(np.zeros((4096, 24), dtype=np.int8),
                         np.zeros(24, dtype=np.int64))
        assert calls == [(4096, 24)]

    @pytest.mark.parametrize("cap", [1, 240_000, typicality.CHECK_BATCH_BYTES])
    def test_runs_with_own_fixed_rows(self, cap, monkeypatch):
        """A (G, n) ``fixed_flat`` checks G equal runs of candidates, each
        against its own row, exactly as G separate checks would, split
        under any chunk cap; runs of one candidate each included."""
        monkeypatch.setattr(typicality, "CHECK_BATCH_BYTES", cap)
        rng = np.random.default_rng(5)
        runs = widest = 0
        for test, cand, fixed in _check_batch_cases():
            widest = max(widest, test.ncells)
            for groups in (2, 3, cand.shape[0]):
                if cand.shape[0] % groups:
                    continue
                tails = np.concatenate([fixed[None], rng.integers(
                    0, test.tail, (groups - 1, test.n))])
                run = cand.shape[0] // groups
                want = reference_check_batch(test, cand,
                                             np.repeat(tails, run, axis=0))
                np.testing.assert_array_equal(
                    test.check_batch(cand, tails), want)
                runs += 1
        assert runs > 20
        assert widest > 127               # a folded index wider than int8

    def test_no_candidates_give_an_empty_mask(self):
        """A decoding stage may leave no candidates: they check to an empty
        mask against a shared row and against per-run rows alike."""
        test = TypicalityTest(rc.uniform_pmf(("X", "Y"), (2, 2)), ("X", "Y"),
                              7, 1.0)
        empty = np.zeros((0, 7), dtype=np.int8)
        for fixed in (np.zeros(7, dtype=np.int64),
                      np.zeros((3, 7), dtype=np.int64),
                      np.zeros((0, 7), dtype=np.int64)):
            mask = test.check_batch(empty, fixed)
            assert mask.dtype == bool and mask.shape == (0,)

    def test_runs_must_split_the_candidates_evenly(self):
        test = TypicalityTest(rc.uniform_pmf(("X", "Y"), (2, 2)), ("X", "Y"),
                              7, 1.0)
        for c, g in [(10, 3), (2, 4), (5, 0)]:
            with pytest.raises(ValueError, match=rf"\b{c}\b.*\b{g}\b"):
                test.check_batch(np.zeros((c, 7), dtype=np.int8),
                                 np.zeros((g, 7), dtype=np.int64))


class TestStages:
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("lead", [2, 3])
    def test_joint_passes_pass_every_stage(self, lead, epsilon):
        """Stage s screens lead labels s..lead-1 and the rest against the
        joint test's bounds summed over the labels it drops.  On random
        pmfs whose n * p are whole counts, every tuple the joint test
        passes passes every stage, and stage 0 is the joint test."""
        rng = np.random.default_rng(100 * lead + int(10 * epsilon))
        labels = ("A", "B", "C", "Y")[-(lead + 1):]
        joint_passes = screened_only = 0
        for _ in range(6):
            sizes = tuple(int(k) for k in rng.integers(2, 4, lead + 1))
            cells = int(np.prod(sizes))
            n = int(rng.integers(6, 16))
            counts = rng.multinomial(n, rng.dirichlet(np.full(cells, 0.5)))
            ref = rc.JointPmf(labels, sizes, counts / n)
            test = TypicalityTest(ref, labels, n, epsilon, lead)
            assert test.stage(0) is test
            # tuples of the reference's exact type, with a few positions
            # redrawn: each a row of cell indices
            exact = np.repeat(np.arange(cells), counts)
            tuples = np.array([rng.permutation(exact) for _ in range(400)])
            moved = rng.random(tuples.shape) < rng.random((400, 1)) / 3
            tuples[moved] = rng.integers(0, cells, int(moved.sum()))
            lead_index, tail = np.divmod(tuples, test.tail)
            passed = test.check_batch(lead_index, tail)
            joint_passes += int(passed.sum())
            for s in range(1, lead):
                stage = test.stage(s)
                assert stage.labels == labels[s:]
                assert stage.ncells == cells // int(np.prod(sizes[:s]))
                lead_size = stage.ncells // stage.tail
                screened = stage.check_batch(lead_index % lead_size, tail)
                assert screened[passed].all()
                screened_only += int((screened & ~passed).sum())
        assert joint_passes > 20
        if epsilon > 0:
            assert screened_only > 0     # the stages screen, they do not decide
