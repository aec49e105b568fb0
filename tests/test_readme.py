"""The ```python blocks of README.md run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a block's body ends at its closing fence, which doctest alone would read
# as expected output of the last example
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_pass_as_doctests():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    blocks = 0
    for match in BLOCK.finditer(text):
        lineno = text.count("\n", 0, match.start(1))
        test = parser.get_doctest(match.group(1), {}, f"README.md:{lineno + 1}",
                                  str(README), lineno)
        runner.run(test)
        blocks += 1
    result = runner.summarize(verbose=False)
    assert blocks >= 3
    assert result.attempted >= 15
    assert result.failed == 0
