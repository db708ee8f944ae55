"""Every exported name resolves, so removing an API cannot leave a
dangling entry in a package's __all__."""

import pytest

import oql
import oql.syntax


@pytest.mark.parametrize("package", [oql, oql.syntax],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
