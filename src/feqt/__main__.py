"""``python -m feqt``: the ``feqt`` command line."""

from .cli import main

main()
