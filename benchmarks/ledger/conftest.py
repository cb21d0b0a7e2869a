import sys
from pathlib import Path

# The ledger's modules import the simulator from this checkout.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
