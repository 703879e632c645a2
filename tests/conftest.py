import sys
from pathlib import Path

# the repository root, so that tests can import the benchmark's `perfbench` package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
