"""``python -m punits``: the same command line as the ``punits`` script."""

import sys

from .cli import main

sys.exit(main())
