"""``python -m lindlyap``: the ``lindlyap`` command line, runnable from a checkout with
``PYTHONPATH=src`` and no installed console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
