"""Element-type reference tables.

Local node orderings follow the usual FE conventions:

* ``tri``  — counter-clockwise corners 0-1-2.
* ``quad`` — counter-clockwise corners 0-1-2-3.
* ``tet``  — corners 0-1-2 base, 3 apex.
* ``hex``  — corners 0-3 bottom face CCW, 4-7 top face CCW above them.

``ELEMENT_FACES`` lists the boundary entities used for surface
extraction and dual-graph construction (edges in 2D, faces in 3D);
``ELEMENT_EDGES`` lists the 1D edges used for nodal-graph
construction.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

ELEMENT_DIM: Dict[str, int] = {
    "tri": 2,
    "quad": 2,
    "tet": 3,
    "hex": 3,
}

ELEMENT_NODES: Dict[str, int] = {
    "tri": 3,
    "quad": 4,
    "tet": 4,
    "hex": 8,
}

# boundary entities (what two adjacent elements share): edges in 2D,
# faces in 3D
ELEMENT_FACES: Dict[str, np.ndarray] = {
    "tri": np.array([[0, 1], [1, 2], [2, 0]]),
    "quad": np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
    "tet": np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]),
    "hex": np.array(
        [
            [0, 3, 2, 1],  # bottom
            [4, 5, 6, 7],  # top
            [0, 1, 5, 4],  # front
            [1, 2, 6, 5],  # right
            [2, 3, 7, 6],  # back
            [3, 0, 4, 7],  # left
        ]
    ),
}

# 1D edges (what the nodal graph connects)
ELEMENT_EDGES: Dict[str, np.ndarray] = {
    "tri": np.array([[0, 1], [1, 2], [2, 0]]),
    "quad": np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
    "tet": np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
    "hex": np.array(
        [
            [0, 1], [1, 2], [2, 3], [3, 0],  # bottom ring
            [4, 5], [5, 6], [6, 7], [7, 4],  # top ring
            [0, 4], [1, 5], [2, 6], [3, 7],  # verticals
        ]
    ),
}


def check_element_type(elem_type: str) -> str:
    """Validate and return ``elem_type``."""
    if elem_type not in ELEMENT_DIM:
        raise ValueError(
            f"unknown element type {elem_type!r}; "
            f"expected one of {sorted(ELEMENT_DIM)}"
        )
    return elem_type
