"""``python -m benchmarks.e2e`` — see ``run.py``."""

import sys

from .run import main

if __name__ == "__main__":
    sys.exit(main())
