import os
import sys


def main(argv=None) -> int:
    """The ``hawkes-rkhs`` command: ``cli.main`` with OpenMP, OpenBLAS and MKL
    on one thread unless the caller set them, so process pools do not
    oversubscribe the cores.  It sets them before ``cli`` loads numpy."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
