"""`tools/seed_sweep.py` runs criterion 6's recipe in fresh processes and
tabulates accuracy, weight fingerprint and seconds per run."""

import importlib.util
from pathlib import Path

from iclattn.model import EncoderDecoder, ModelConfig
from iclattn.tasks import make_family
from iclattn.training import TrainConfig, train

_PATH = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
_SPEC = importlib.util.spec_from_file_location("seed_sweep", _PATH)
seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_sweep)


def test_one_run_at_a_two_step_budget(tmp_path):
    """One variant and seed, two training steps: one table row, whose
    fingerprint is that of the same two steps trained here, and a saved
    model with those weights."""
    rows = seed_sweep.sweep(["full"], [3], 2, save_dir=tmp_path)
    lines = seed_sweep.table(rows).splitlines()
    assert lines[0] == ("| variant | seed | accuracy | weight_fingerprint "
                        "| seconds |")
    assert len(lines) == 3
    variant, seed, accuracy, fingerprint, seconds = (
        cell.strip() for cell in lines[2].strip("|").split("|"))
    model = EncoderDecoder(ModelConfig(variant="full"), seed=3)
    train(model, make_family("lookup"), TrainConfig(steps=2, seed=3))
    assert (variant, seed) == ("full", "3")
    assert sorted(rows[0][2]["evals"]) == [2, 4, 8]
    assert 0.0 <= float(accuracy) <= 1.0
    assert int(fingerprint) == model.weight_fingerprint()
    assert (EncoderDecoder.load(tmp_path / "full-3.npz").weight_fingerprint()
            == model.weight_fingerprint())
    assert float(seconds) > 0
