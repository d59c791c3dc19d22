"""Process entry of ``python -m metadisk`` and the ``metadisk`` script."""

import gc
import os
import sys


def entry():
    """Run ``cli.main`` with the cyclic collector off and leave through
    ``os._exit`` once stdout and stderr are flushed: a command's cyclic
    garbage is a few hundred objects whatever the data, and every file it
    writes is closed by then.  Forked grid workers inherit the disabled
    collector.  An uncaught exception keeps Python's traceback and exit.
    """
    gc.disable()
    from . import cli
    try:
        code = cli.main()
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
