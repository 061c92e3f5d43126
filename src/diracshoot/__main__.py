import gc
import sys

from .cli import main


def run(argv=None) -> int:
    """main's exit code, with the heap frozen after the output so teardown skips it."""
    try:
        return main(argv)
    finally:  # argparse's usage errors and --help leave through SystemExit
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
