"""`python -m shortpacket ARGS` runs the command-line tool, as `shortpacket ARGS` does."""

import sys

from .cli import main

sys.exit(main())
