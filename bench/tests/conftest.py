import sys
from pathlib import Path

# The benchmark's modules are scripts in bench/, not a package.
BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
