"""``python -m netnpa`` runs the command-line front end."""

from .cli import main

main()
