"""Run the command line interface as `python -m flatlat`."""

import sys

from .cli import main

sys.exit(main())
