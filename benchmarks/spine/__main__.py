"""Entry point: ``python -m benchmarks.spine`` or ``python benchmarks/spine/__main__.py``."""

import importlib.util
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    _root = Path(__file__).resolve().parents[2]
    if not __package__:  # run as a script: put the repo root where the script dir was
        sys.path[0] = str(_root)
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(_root / "src"))

    from benchmarks.spine import BLAS_PIN

    for _var in BLAS_PIN:  # before numpy loads
        os.environ[_var] = "1"

    from benchmarks.spine.cli import main

    sys.exit(main(sys.argv[1:]))
