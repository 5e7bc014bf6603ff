"""`python -m corrbern`: the command-line interface of `corrbern.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
