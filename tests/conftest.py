import os
import sys
from pathlib import Path

# allow running pytest from a fresh checkout without installing, also in the
# `python -m curvecensus.cli` subprocesses some tests launch
_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
