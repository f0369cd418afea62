"""Test modules share their oracles by plain import (test_energy reads test_contractions' S tensor).
tests/ goes on sys.path, as pytest's default import mode puts it, so that holds under every import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
