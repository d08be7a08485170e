import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iclattn.fusion import (TOKENS_PER_DEMO_BUDGET, FusionPlan, PackingError,
                            PromptPack, batch_scores, fused_logprobs,
                            group_fid_encode, pack_prompt, prompts,
                            split_groups)
from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import Episode, TaskExample, make_family


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
    def test_rejects_empty_test_segment(self):
        with pytest.raises(ValueError, match="test segment must be non-empty"):
            PromptPack(((2,),), ())


class TestPackPrompt:
    def test_rejects_bad_format(self):
        with pytest.raises(ValueError, match="unknown prompt format 'both'"):
            pack_prompt(make_demos(1, 2), demo([2], [3]), k=1, l_max=8,
                        fmt="both")

    def test_budget_admits_ten_of_sixteen(self):
        """100-token demos against a 64*16 = 1024 token budget: ten fit
        (1000 <= 1024 < 1100), and 10 lies in [16/4, 16]."""
        demos = make_demos(16, 100)
        pack = pack_prompt(demos, demo([40], [41]), k=16, l_max=128)
        assert pack.num_demos == 10
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

    def test_zero_l_max_rejected(self):
        with pytest.raises(PackingError, match="l_max must be >= 1"):
            pack_prompt(make_demos(1, 2), demo([2], [3]), k=1, l_max=0)

    def test_channel_order(self):
        """Channel prompts put y_i before x_i and end with y_test, and
        `batch_scores` scores x_test after them."""
        pack = pack_prompt([demo([2, 3], [4])], demo([5], [6]), k=1,
                           l_max=8, fmt="channel")
        assert pack.demo_segments[0] == (4, 2, 3)   # y_i then x_i
        assert pack.test_segment == (6,)            # y_test in the prompt
        m = small_model()
        ep = Episode([demo([2, 3], [4])], demo([5], [6]))
        scores = batch_scores(m, [ep], [[(6,)]], k=1, l_max=8, fmt="channel")
        assert scores.data.shape == (1, 1)
        x_test = m.sequence_logprob(*m.encode(pack), [5])   # x_test is scored
        np.testing.assert_array_equal(scores.data[0], x_test.data)

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

    def test_fid_requires_one_group(self):
        """FiD encodes one demonstration per group whatever `groups` says,
        so another group count is rejected, not ignored."""
        with pytest.raises(ValueError, match="fid scheme"):
            FusionPlan("fid", 3)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            FusionPlan("pipeline", 1)

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError, match="groups must be >= 1"):
            FusionPlan(groups=0)

    def test_runs(self):
        """Single, FiD and Group-FiD are one run over every demonstration
        in 1, n and G groups; ensemble is G runs of one group."""
        every = list(range(6))
        assert FusionPlan("single").runs(6) == [(every, 1)]
        assert FusionPlan("fid").runs(6) == [(every, 6)]
        assert FusionPlan("group_fid", 3).runs(6) == [(every, 3)]
        assert FusionPlan("ensemble", 3).runs(6) == [
            ([0, 1], 1), ([2, 3], 1), ([4, 5], 1)]
        with pytest.raises(ValueError, match="groups must lie in"):
            FusionPlan("ensemble", 7).runs(6)


class TestPrompts:
    test = TaskExample([4, 5], [9], [[9], [10]])

    def test_direct_scores_every_candidate_after_one_prompt(self):
        cands = [(9,), (10,), (11,)]
        assert prompts(self.test, cands, "direct") == [(self.test, cands)]

    def test_channel_puts_each_candidate_in_y_test_place(self):
        """One prompt per candidate, with the candidate as y_test and
        x_test as the one continuation; the candidate need not be an
        option."""
        got = prompts(self.test, [(10,), (11,)], "channel")
        assert [(list(t.x), list(t.y), t.options, cs) for t, cs in got] == [
            ([4, 5], [10], None, [(4, 5)]), ([4, 5], [11], None, [(4, 5)])]


class TestPassStructure:
    """Encoder and decoder passes of one lookup episode at k=8 with 4
    options, G=4: `fused_logprobs` encodes once per run and prompt, and
    decodes once per continuation."""

    COUNTS = {
        "direct": {"single": (1, 4), "fid": (8, 4), "group_fid": (4, 4),
                   "ensemble": (4, 16)},
        "channel": {"single": (4, 4), "fid": (32, 4), "group_fid": (16, 4),
                    "ensemble": (16, 16)},
    }

    @pytest.mark.parametrize("fmt", sorted(COUNTS))
    @pytest.mark.parametrize("scheme", sorted(PLANS))
    def test_pass_counts(self, scheme, fmt, monkeypatch):
        calls = {"encode": 0, "sequence_logprob": 0}
        for name in calls:
            real = getattr(EncoderDecoder, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(EncoderDecoder, name, counted)
        ep = make_family("lookup").sample_episode(8, 0)
        assert len(ep.test.options) == 4
        plan = FusionPlan(scheme, 1 if scheme in ("single", "fid") else 4)
        scores = fused_logprobs(small_model(), ep.demos, ep.test,
                                ep.test.options, plan, l_max=8, fmt=fmt)
        assert scores.shape == (4,)
        assert (calls["encode"], calls["sequence_logprob"]) == \
            self.COUNTS[fmt][scheme]


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
        """Four groups of one is FiD: each demonstration packed alone,
        encoded, and the states concatenated on the position axis."""
        states, key_valid = group_fid_encode(self.model, self.demos,
                                             self.test, groups=4, l_max=8)
        fid = [self.model.encode(pack_prompt([d], self.test, k=1, l_max=8))
               for d in self.demos]
        fid_states = np.concatenate([s.data for s, _ in fid], axis=1)
        assert states.data.shape == fid_states.shape
        assert np.abs(states.data - fid_states).max() <= 1e-12
        np.testing.assert_array_equal(key_valid,
                                      np.concatenate([v for _, v in fid]))
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
        assert int(np.argmax(fused_logprobs(
            m, self.demos, self.test, [(5,), (6,), (7,)], PLANS[scheme],
            l_max=8))) == 0

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
        with pytest.raises(ValueError, match="need at least one candidate"):
            fused_logprobs(small_model(), self.demos, self.test, [],
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
