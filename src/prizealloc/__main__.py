"""Run the command-line interface: ``python -m prizealloc <command> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
