import sys

from .cli import main

if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # flush at shutdown does not raise again, and exit as a writer that
        # SIGPIPE ended
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
