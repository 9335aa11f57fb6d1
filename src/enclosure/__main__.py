"""`python -m enclosure`: the command-line interface of `enclosure.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
