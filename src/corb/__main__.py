"""`python -m corb ...` runs the command line, as the `corb` entry point does."""

import sys

from .cli import main

sys.exit(main())
