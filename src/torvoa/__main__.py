"""``python -m torvoa RUNFILE``: the command line without installing."""

from .cli import main

raise SystemExit(main())
