"""The package's export list."""

import ldpc_forge


def test_every_exported_name_resolves_once():
    names = ldpc_forge.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ldpc_forge, n)] == []
