"""``python -m fuzzfix``: the batch CLI."""

import sys

from .cli import main

sys.exit(main())
