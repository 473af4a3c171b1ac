"""The sources stay within the syntax of the oldest supported Python (3.10).

``ast.parse(..., feature_version=(3, 10))`` is best effort: it catches most
newer syntax, but not all of it (PEP 701 f-strings that reuse the enclosing
quote parse on a newer interpreter).  The CI leg on Python 3.10 is the full
check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(paths) > 10
    for path in paths:
        # Raises SyntaxError naming the file and line of most newer syntax.
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
