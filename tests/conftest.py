"""Shared fixtures: the oracle run and the wide adjacent-sector basis."""
from __future__ import annotations

import numpy as np
import pytest

import ptcontour as pt


@pytest.fixture(scope="session")
def oracle_levels():
    """The from-scratch oracle run (also exercises the drift gate)."""
    return np.asarray(pt.oracle_spectrum(5))


@pytest.fixture(scope="session")
def wide_adjacent_basis():
    """Eigenbasis of the adjacent-sector contour on the wide blow-up grid."""
    grid = pt.Grid("momentum", -30.0, 30.0, 1601)
    return pt.eigenbasis(pt.ADJACENT, 4, grid)
