"""Source layout the package keeps: no line of src/lie2alg is over 99 columns."""

from pathlib import Path

import lie2alg

MAX_COLUMNS = 99


def test_source_lines_fit_in_99_columns():
    long = [f"{path.name}:{n}: {len(line)} columns"
            for path in sorted(Path(lie2alg.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long, "\n".join(long)
