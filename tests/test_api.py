import annulab


def test_every_public_name_resolves_once():
    names = annulab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(annulab, name)]
    assert missing == []
