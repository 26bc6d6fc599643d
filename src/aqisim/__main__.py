"""`python -m aqisim`: the command-line interface, as the `aqisim` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
