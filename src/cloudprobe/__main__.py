"""`python -m cloudprobe`: cli.run, the entry point the console script calls too."""
from .cli import run

run()
