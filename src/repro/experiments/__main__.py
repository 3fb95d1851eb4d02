"""``python -m repro.experiments ARGS`` is ``python -m repro sweep ARGS``.

Usage::

    python -m repro.experiments all
    python -m repro.experiments fig3 fig6 [--parallel 4] [--cache-dir .sweep-cache]
"""

from __future__ import annotations

import sys

from repro.cli import shell_main

if __name__ == "__main__":
    sys.exit(shell_main(["sweep", *sys.argv[1:]]))
