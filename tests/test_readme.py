import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        scope = {}
        exec(compile(block, str(README), "exec"), scope)
    # the library example ends with an estimate of its model's order
    assert scope["q_hat"] == scope["model"].true_order()
