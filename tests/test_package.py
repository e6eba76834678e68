from __future__ import annotations

import fppslab


def test_every_exported_name_resolves_once():
    assert len(set(fppslab.__all__)) == len(fppslab.__all__)
    missing = [name for name in fppslab.__all__ if not hasattr(fppslab, name)]
    assert not missing
