"""Read ``.npz`` archives that may be damaged, and fail typed.

Meshes, checkpoints and disk-cache entries are ``.npz`` archives read
back from outside the process. :func:`read_npz` is their one reader: it
loads every member eagerly and turns whatever a damaged archive makes
the zip layer or NumPy's header parser raise into one ``ValueError``.
"""

from __future__ import annotations

import os
import tokenize
import zipfile
import zlib
from contextlib import ExitStack
from typing import IO, Dict, Sequence, Union

import numpy as np
from numpy.lib.npyio import NpzFile

Source = Union[str, "os.PathLike[str]", IO[bytes]]

#: what reading a truncated or byte-flipped archive raises: the zip
#: layer (``BadZipFile``, ``zlib.error``, ``EOFError``, ``OSError`` on
#: a seek before the start, ``NotImplementedError`` for an unknown
#: compression method, ``RuntimeError`` when a member's encryption
#: bit is set), a renamed member (``KeyError``) and NumPy's ``.npy``
#: header parser (``ValueError``, ``tokenize.TokenError``)
_DAMAGE = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    OSError,
    NotImplementedError,
    RuntimeError,
    KeyError,
    ValueError,
    tokenize.TokenError,
)


def read_npz(
    source: Source, required: Sequence[str] = ()
) -> Dict[str, np.ndarray]:
    """Every member of the archive ``source`` (a path or an open binary
    file), read eagerly.

    A path that does not exist raises ``FileNotFoundError`` as ``open``
    does. An archive that cannot be read, or lacks a ``required``
    member, raises ``ValueError`` naming the path (for a path) and the
    cause.
    """
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            where = f"{os.fspath(source)}: "
            fh: IO[bytes] = stack.enter_context(open(source, "rb"))
        else:
            where, fh = "", source
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, NpzFile):
                raise ValueError("a single .npy array, not an archive")
            with data:
                members = {name: data[name] for name in data.files}
        except _DAMAGE as exc:
            raise ValueError(
                f"{where}unreadable .npz archive "
                f"({type(exc).__name__}: {exc})"
            ) from None
    missing = [name for name in required if name not in members]
    if missing:
        raise ValueError(f"{where}.npz archive lacks member(s) {missing}")
    return members
