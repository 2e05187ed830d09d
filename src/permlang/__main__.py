"""``python -m permlang``: the ``permlang`` command without installing,
e.g. ``PYTHONPATH=src python -m permlang decode mrlff``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
