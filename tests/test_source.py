"""Rules read from the source text: the sources stay within the syntax of
the oldest supported Python (3.10), and the package writes no ``@``.

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


def test_package_has_no_matmul_operator():
    """``@`` goes through the matmul gufunc, whose dispatch costs more per
    call than ``ndarray.dot`` on the package's small vectors (timings in
    the ``operators`` module docstring); the package writes every mat-vec
    and inner product as ``.dot``."""
    offenders = []
    for path in sorted(ROOT.glob("src/bvrvi/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert not offenders, f"`@` in the package, use .dot: {', '.join(offenders)}"
