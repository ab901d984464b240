"""The package's public names."""
from __future__ import annotations

import qrseq


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from qrseq import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert all(hasattr(qrseq, name) for name in qrseq.__all__)
    assert set(qrseq.__all__) <= namespace.keys()
