"""``python -m qpendulum``: the command-line interface."""
from qpendulum.cli import main

raise SystemExit(main())
