import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pqham.residues import exceptional_table


@pytest.fixture(scope="session")
def table131():
    """The full exceptional-sequence table."""
    return exceptional_table(131)
