import sys
from pathlib import Path

from hypothesis import settings

# make the side-by-side oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

# the same examples on every run, no time limit, no example database
settings.register_profile("faet", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("faet")
