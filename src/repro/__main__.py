"""Entry point: ``python -m repro <command>`` (see repro.cli)."""

import sys

from repro.cli import shell_main

if __name__ == "__main__":
    sys.exit(shell_main(sys.argv[1:]))
