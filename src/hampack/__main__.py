"""`python -m hampack`: the hampack command line."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
