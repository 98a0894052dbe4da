import eqschub


def test_every_export_resolves():
    missing = [name for name in eqschub.__all__ if not hasattr(eqschub, name)]
    assert not missing
    assert len(set(eqschub.__all__)) == len(eqschub.__all__)
