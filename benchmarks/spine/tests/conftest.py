"""Make ``repro`` importable when the tests run without ``PYTHONPATH=src``."""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))
