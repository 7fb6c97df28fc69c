"""``python -m atent``: the ``atent`` command."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
