"""``python -m xxzent``: the command-line interface, as the xxzent script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
