"""Console entry point.

Exit codes: 0 success, 2 usage error, 3 premise violation, 4 I/O error,
5 diverged (an iterate stopped being finite).  Usage errors and the
premises of the presets are refused (2, 3) before anything is printed or
written.
"""

from __future__ import annotations

import sys

from .errors import DivergenceError, ParameterError, PremiseViolationError, UsageError
from .harness import build_arg_parser, parse_config, run_experiment


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(build_arg_parser().format_usage(), end="", file=sys.stderr)
        return 2
    except PremiseViolationError as exc:
        print(f"premise violation: {exc}", file=sys.stderr)
        return 3
    try:
        return run_experiment(config)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
