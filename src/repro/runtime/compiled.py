"""Constant answers for ``benchmarks/spine/inputs.py::environment_stamp``.

There is one execution tier and no compiler to serve one; this module
exists only so the spine's environment stamp keeps importing.  The next
``[benchmark]`` PR (ROADMAP item 7) drops the two stamp keys and this
file together.  Nothing under ``src/`` may import it.
"""


def kernel_tier() -> str:
    return "pure"


def numba_available() -> bool:
    return False
