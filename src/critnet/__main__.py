"""`python -m critnet`: the same command line as the `critnet` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
