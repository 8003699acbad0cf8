"""`python -m arcan`: the command-line interface (see `arcan.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
