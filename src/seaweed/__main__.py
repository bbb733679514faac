"""``python -m seaweed`` runs the command-line interface, ``seaweed.cli.main``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
