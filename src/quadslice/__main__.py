"""``python -m quadslice``: the command line of ``quadslice.cli``."""

from .cli import main

raise SystemExit(main())
