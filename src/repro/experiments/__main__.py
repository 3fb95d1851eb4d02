"""``python -m repro.experiments ARGS`` is ``python -m repro sweep ARGS``.

Usage::

    python -m repro.experiments all
    python -m repro.experiments fig3 fig6 [--parallel 4] [--cache-dir .sweep-cache]
"""

from __future__ import annotations

import sys

from repro.cli import main as repro_main


def main(argv: list[str] | None = None) -> int:
    return repro_main(["sweep", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
