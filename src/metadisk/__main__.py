"""Process entry of ``python -m metadisk`` and the ``metadisk`` script."""

import gc
import sys


def entry() -> int:
    """Import the command line with the collector paused, freeze the heap
    those imports built, and run ``cli.main`` with collection enabled.

    The imports build objects that live until exit, so the collections they
    would trigger free nothing; frozen, those objects are also skipped by the
    collections at interpreter exit and in forked grid workers.  Objects made
    by the command are collected as usual.  ``--help`` takes the same import
    as every command.  ``cli.main`` itself pauses and freezes nothing, so
    in-process callers keep a plain heap.
    """
    gc.disable()
    try:
        from . import cli
        gc.freeze()
    finally:
        gc.enable()
    return cli.main()


if __name__ == "__main__":
    sys.exit(entry())
