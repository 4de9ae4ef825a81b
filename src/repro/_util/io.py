"""Crash-safe file primitive: atomic text writes.

The campaign files that stay files (``manifest.json``, per-run
``params.json``, ``lint.json`` and the ``result.json`` export) must never
be left half-written.  A bare ``Path.write_text`` truncates the
destination before writing, so a driver killed mid-write (SIGKILL, OOM,
power loss) leaves *torn JSON*.

:func:`atomic_write_text` closes that hole with the classic recipe:
write the full payload to a temporary file *in the same directory*,
``fsync`` it, then ``os.replace`` it over the destination.  Readers see
either the old complete file or the new complete file, never a prefix.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: Path, text: str, fsync: bool = True) -> Path:
    """Write ``text`` to ``path`` so a crash can never leave a torn file.

    The payload lands in a ``NamedTemporaryFile`` created in ``path``'s
    own directory (same filesystem, so the final ``os.replace`` is an
    atomic rename), is flushed and — by default — fsynced, and only then
    renamed over the destination.  ``fsync=False`` trades the
    power-loss guarantee for speed (crash-of-the-*process* safety is
    retained either way); benchmarks use it for the measured baseline,
    the campaign metadata writers do not.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
