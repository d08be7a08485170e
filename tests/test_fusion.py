import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclattn.fusion import (TOKENS_PER_DEMO_BUDGET, FusionPlan, PackingError,
                            PromptPack, fid_encode, fused_logprobs,
                            fused_predict, group_fid_encode, pack_prompt,
                            split_groups)
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import TaskExample


def demo(x, y):
    return TaskExample(list(x), list(y))


def make_demos(n, length, base=2):
    return [demo([base + i] * (length - 1), [base + i]) for i in range(n)]


# one plan per scheme, each over two demonstrations
PLANS = {"single": FusionPlan("single"), "fid": FusionPlan("fid"),
         "group_fid": FusionPlan("group_fid", 2),
         "ensemble": FusionPlan("ensemble", 2)}


def small_model(variant="structured", seed=0):
    cfg = ModelConfig(vocab=48, d_model=16, heads=2, enc_layers=1,
                      dec_layers=1, ffn=32, variant=variant)
    return EncoderDecoder(cfg, seed=seed)


class TestPromptPack:
    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            PromptPack(((2,),), (3,), (4,), "both", (0,))


class TestPackPrompt:
    def test_budget_admits_ten_of_sixteen(self):
        """100-token demos against a 64*16 = 1024 token budget: ten fit
        (1000 <= 1024 < 1100), and 10 lies in [16/4, 16]."""
        demos = make_demos(16, 100)
        pack = pack_prompt(demos, demo([40], [41]), k=16, l_max=128)
        assert pack.num_demos == 10
        assert pack.provenance == tuple(range(10))
        assert 16 // 4 <= pack.num_demos <= 16

    def test_small_demos_all_admitted(self):
        demos = make_demos(4, 2)
        pack = pack_prompt(demos, demo([40], [41]), k=4, l_max=8)
        assert pack.num_demos == 4

    def test_truncation_to_l_max(self):
        long = demo(list(range(2, 2 + 299)), [2])
        pack = pack_prompt([long], demo([40], [41]), k=8, l_max=256)
        assert len(pack.demo_segments[0]) == 256

    def test_count_capped_at_k(self):
        demos = make_demos(10, 2)
        pack = pack_prompt(demos, demo([40], [41]), k=3, l_max=8)
        assert pack.num_demos == 3

    def test_test_input_truncated_and_counted(self):
        big_test = demo(list(range(2, 2 + 500)), [3])
        with pytest.raises(PackingError):
            pack_prompt(make_demos(1, 2), big_test, k=1, l_max=512)

    def test_no_demos_rejected(self):
        with pytest.raises(PackingError):
            pack_prompt([], demo([2], [3]), k=1, l_max=8)

    def test_channel_order(self):
        pack = pack_prompt([demo([2, 3], [4])], demo([5], [6]), k=1,
                           l_max=8, fmt="channel")
        assert pack.demo_segments[0] == (4, 2, 3)   # y_i then x_i
        assert pack.test_segment == (6,)            # y_test in the prompt
        assert pack.score_tokens == (5,)            # x_test is scored

    def test_round_trip_provenance(self):
        demos = make_demos(6, 100)
        pack = pack_prompt(demos, demo([40], [41]), k=4, l_max=128)
        recovered = [demos[i] for i in pack.provenance]
        for seg, d in zip(pack.demo_segments, recovered):
            assert list(seg) == list(d.x) + list(d.y)

    @given(
        k=st.integers(1, 32),
        l_max=st.integers(1, 256),
        lengths=st.lists(st.integers(1, 300), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_constraints_never_violated(self, k, l_max, lengths):
        demos = [demo(list(range(2, 2 + n)), [2]) for n in lengths]
        pack = pack_prompt(demos, demo([2], [3]), k=k, l_max=l_max)
        assert pack.num_demos <= k
        total = sum(len(s) for s in pack.demo_segments) + len(pack.test_segment)
        assert total <= TOKENS_PER_DEMO_BUDGET * k
        assert all(len(s) <= l_max for s in pack.demo_segments)
        assert len(pack.test_segment) <= l_max


class TestSplitGroups:
    def test_even_split(self):
        assert split_groups(6, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_remainder_spread(self):
        sizes = [len(p) for p in split_groups(7, 3)]
        assert sorted(sizes) == [2, 2, 3] and max(sizes) - min(sizes) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            split_groups(4, 0)
        with pytest.raises(ValueError):
            split_groups(4, 5)


class TestFusionPlan:
    def test_single_requires_one_group(self):
        with pytest.raises(ValueError):
            FusionPlan("single", 2)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            FusionPlan("pipeline", 1)


class TestDegeneracies:
    def setup_method(self):
        self.model = small_model()
        self.demos = make_demos(4, 3)
        self.test = demo([40], [41])
        self.cands = [(41,), (42,), (43,)]

    def scores(self, plan):
        return fused_logprobs(self.model, self.demos, self.test, self.cands,
                              plan, l_max=8)

    def test_ensemble_one_group_equals_single(self):
        single = self.scores(FusionPlan("single", 1))
        ens = self.scores(FusionPlan("ensemble", 1))
        np.testing.assert_array_equal(single, ens)

    def test_group_fid_k_groups_equals_fid(self):
        gf = group_fid_encode(self.model, self.demos, self.test, groups=4,
                              l_max=8)
        fid = fid_encode(self.model, self.demos, self.test, l_max=8)
        assert np.abs(gf.states.data - fid.states.data).max() <= 1e-12
        np.testing.assert_array_equal(gf.key_valid, fid.key_valid)
        gf_scores = self.scores(FusionPlan("group_fid", 4))
        fid_scores = self.scores(FusionPlan("fid", 1))
        np.testing.assert_array_equal(gf_scores, fid_scores)

    def test_fid_one_demo_equals_single(self):
        model, test, cands = self.model, self.test, self.cands
        one = [self.demos[0]]
        fid_scores = fused_logprobs(model, one, test, cands,
                                    FusionPlan("fid", 1), l_max=8)
        single = fused_logprobs(model, one, test, cands,
                                FusionPlan("single", 1), l_max=8)
        np.testing.assert_allclose(fid_scores, single, atol=1e-12)


class TestEnsembleInvariance:
    def test_within_group_permutation(self):
        """Structured attention makes each group's scores independent of
        demo order inside the group, so the ensemble average is too."""
        model = small_model("structured")
        demos = make_demos(6, 3)
        test = demo([40], [41])
        cands = [(41,), (42,)]
        plan = FusionPlan("ensemble", 2)
        base = fused_logprobs(model, demos, test, cands, plan, l_max=8)
        swapped = [demos[2], demos[1], demos[0]] + demos[3:]  # within group 1
        perm = fused_logprobs(model, swapped, test, cands, plan, l_max=8)
        assert np.abs(base - perm).max() <= 1e-9

    def test_across_group_swap(self):
        """Swapping whole groups leaves the mean of per-group scores
        unchanged."""
        model = small_model("structured")
        demos = make_demos(6, 3)
        test = demo([40], [41])
        cands = [(41,), (42,)]
        plan = FusionPlan("ensemble", 2)
        base = fused_logprobs(model, demos, test, cands, plan, l_max=8)
        swapped = demos[3:] + demos[:3]
        perm = fused_logprobs(model, swapped, test, cands, plan, l_max=8)
        np.testing.assert_allclose(base, perm, atol=1e-12)


class TestChannelFusion:
    def test_channel_fid_runs(self):
        model = small_model()
        demos = make_demos(3, 3)
        test = demo([40], [41])
        scores = fused_logprobs(model, demos, test, [(41,), (42,)],
                                FusionPlan("fid", 1), l_max=8, fmt="channel")
        assert scores.shape == (2,)
        assert np.isfinite(scores).all()


class TestFusedScoring:
    """Every scheme scores candidates through the one scorer, so each
    gives the same answer to the same input."""

    demos = [demo([2], [9]), demo([3], [10])]
    test = TaskExample([4, 5], [9], [[9], [10]])

    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_tie_break_lowest_index(self, scheme):
        m = small_model()
        m.params["out"].data[:] = 0.0
        assert fused_predict(m, self.demos, self.test, [(5,), (6,), (7,)],
                             PLANS[scheme], l_max=8) == 0

    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_channel_scores_differ_from_direct(self, scheme):
        """Direct and channel route through different encodes, so the
        scores genuinely differ."""
        m = small_model()
        score = {fmt: fused_logprobs(m, self.demos, self.test, [(9,), (10,)],
                                     PLANS[scheme], l_max=8, fmt=fmt)
                 for fmt in ("direct", "channel")}
        assert score["channel"].shape == (2,)
        assert np.isfinite(score["channel"]).all()
        assert not np.allclose(score["channel"], score["direct"])

    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_no_demonstrations_rejected(self, scheme):
        with pytest.raises(PackingError, match="demonstration"):
            fused_logprobs(small_model(), [], self.test, [(9,)],
                           PLANS[scheme], l_max=8)

    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_no_candidates_rejected(self, scheme):
        for score in (fused_logprobs, fused_predict):
            with pytest.raises(ValueError, match="need at least one candidate"):
                score(small_model(), self.demos, self.test, [],
                      PLANS[scheme], l_max=8)

    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_channel_candidate_outside_options_scored(self, scheme):
        """A channel candidate need not be among the test's options: it
        takes y_test's place in the prompt, and scores like a test whose
        answer it is."""
        m = small_model()
        cands = [(9,), (11,)]
        scores = fused_logprobs(m, self.demos, self.test, cands,
                                PLANS[scheme], l_max=8, fmt="channel")
        assert scores.shape == (2,) and np.isfinite(scores).all()
        alone = fused_logprobs(m, self.demos, TaskExample([4, 5], [11]),
                               [(11,)], PLANS[scheme], l_max=8, fmt="channel")
        np.testing.assert_array_equal(scores[1:], alone)
