import re
from pathlib import Path

from spikeorder.cli import load_experiment_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        scope = {}
        exec(compile(block, str(README), "exec"), scope)
    # the library example ends with an estimate of its model's order, made twice
    assert scope["q_same"] == scope["q_hat"] == scope["model"].true_order()


def test_config_example_loads(tmp_path):
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    # as written, and with every commented-out key = value line switched on
    for text in (block, re.sub(r"^# (?=\w+ = )", "", block, flags=re.M)):
        path = tmp_path / "experiment.cfg"
        path.write_text(text)
        cfg, out, trace = load_experiment_config(str(path))
        assert [s.name for s in cfg.estimators] == ["py", "vacle", "tvacle"]
        assert (cfg.reps, cfg.calibration_seed, out, trace) == (500, 7, "results.csv", False)
    assert cfg.estimators[0].c_n == 0.3  # the switched-on keys were read
