import gc
import sys

from . import cli


def main():
    try:
        code = cli.main()
    finally:
        gc.freeze()  # exit then skips collecting what site and the layers loaded (~6 ms)
    sys.exit(code)


if __name__ == "__main__":
    main()
