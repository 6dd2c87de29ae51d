"""Run the command line front end: ``python -m ncdiff``."""

import sys

from .cli import main

sys.exit(main())
