"""README's first two code blocks run as written, so the names they teach stay public."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_and_sampled_geometry_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks[:2]:  # Library example, then Sampled geometry, which reads its knot and field
            exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out  # the Library example prints its residuals and energies
    assert namespace["mu"].shape == (2001,)
