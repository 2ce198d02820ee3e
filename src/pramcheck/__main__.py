"""`python -m pramcheck`: run the command-line interface and exit with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
