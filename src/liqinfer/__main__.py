"""`python -m liqinfer ARGS`: the same as the `liqinfer` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
