import pytest

from setvi.config import RunSettings
from setvi.errors import SchemaError


@pytest.mark.parametrize("doc", [
    {"wstar_densty": 9},
    {"dini": {"stepz": 3}},
    {"wstar_densty": 9, "dini": {"stepz": 3}},
    {"workers": 2},
])
def test_unknown_keys_are_rejected(doc):
    with pytest.raises(SchemaError):
        RunSettings.from_dict(doc)
