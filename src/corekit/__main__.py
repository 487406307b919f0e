"""Allow `python -m corekit ...` as an alias for the corekit script."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
