"""``python -m chirplab``: the command-line interface of ``chirplab.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
