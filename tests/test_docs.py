"""The ``python`` blocks of README.md and PAPER.md run as written."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Two trades in the April 2000 window of the README's example, one before it.
TRADES = ("# lender,borrower,amount,date\n"
          "b,a,8.0,2000-04-03\na,c,5.0,2000-03-31\nc,b,6.0,2000-04-17\n")


def test_documented_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trades.csv").write_text(TRADES, encoding="utf-8")
    for name in ("README.md", "PAPER.md"):
        text = (ROOT / name).read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
        assert blocks, f"{name} has no python block"
        for k, block in enumerate(blocks, 1):
            exec(compile(block, f"{name}, python block {k}", "exec"), {})
