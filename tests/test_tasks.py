import pytest

from iclattn.tasks import (LinearLabelFamily, LookupFamily, TaskExample,
                           make_family)


class TestTaskExample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TaskExample([], [2])
        with pytest.raises(ValueError):
            TaskExample([2], [])

    def test_y_must_be_an_option(self):
        with pytest.raises(ValueError):
            TaskExample([2], [3], options=[[4], [5]])
        TaskExample([2], [3], options=[[3], [4]])  # fine


class TestLookupFamily:
    def test_answer_always_recoverable(self):
        """Replay oracle over many episodes: the one demonstration whose
        key matches the test key carries the gold answer."""
        fam = LookupFamily()
        for seed in range(1000):
            ep = fam.sample_episode(4, seed)
            matches = [d for d in ep.demos if d.x == ep.test.x]
            assert matches, seed
            assert all(d.y == ep.test.y for d in matches), seed

    def test_mapping_consistent_within_episode(self):
        fam = LookupFamily()
        for seed in range(200):
            ep = fam.sample_episode(12, seed)  # k above the key pool
            seen = {}
            for d in ep.demos:
                key = tuple(d.x)
                assert seen.setdefault(key, tuple(d.y)) == tuple(d.y)

    def test_deterministic_in_seed(self):
        fam = LookupFamily()
        a = fam.sample_episode(4, 7)
        b = fam.sample_episode(4, 7)
        assert [(d.x, d.y) for d in a.demos] == [(d.x, d.y) for d in b.demos]
        assert (a.test.x, a.test.y) == (b.test.x, b.test.y)

    def test_distinct_seeds_differ(self):
        fam = LookupFamily()
        eps = [fam.sample_episode(4, s) for s in range(20)]
        fingerprints = {tuple(tuple(d.x + d.y) for d in e.demos) for e in eps}
        assert len(fingerprints) > 1

    def test_options_are_label_tokens(self):
        fam = LookupFamily(arity=4, label_base=40)
        ep = fam.sample_episode(3, 0)
        assert ep.test.options == [[40], [41], [42], [43]]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LookupFamily(num_keys=1)
        with pytest.raises(ValueError):
            fam = LookupFamily()
            fam.sample_episode(0, 0)


class TestLinearFamily:
    def test_labels_follow_latent_rule(self):
        fam = LinearLabelFamily()
        for seed in range(100):
            ep = fam.sample_episode(6, seed)
            # recover (a, b) by brute force over the small latent space
            consistent = []
            for a in range(1, fam.arity):
                for b in range(fam.arity):
                    ok = all(
                        d.y[0] == fam._label(d.x[0] - fam.input_base, a, b)
                        for d in ep.demos + [ep.test])
                    if ok:
                        consistent.append((a, b))
            assert consistent, seed


class TestCopyFamily:
    def test_gold_among_options(self):
        fam = make_family("copy")
        ep = fam.sample_episode(3, 1)
        assert list(ep.test.y) in [list(o) for o in ep.test.options]


class TestMakeFamily:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_family("mystery")

    def test_kwargs_forwarded(self):
        fam = make_family("lookup", num_keys=4)
        assert fam.num_keys == 4
