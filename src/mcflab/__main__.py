"""`python -m mcflab <verb> --config <json> --out <dir>`: the CLI of `cli.main`."""

import sys

from .cli import main

sys.exit(main())
