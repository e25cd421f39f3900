"""Entry point for ``python -m apnforge``."""

from .cli import main

main()
