"""python -m dpv: the dpv command."""

from .cli import main

raise SystemExit(main())
