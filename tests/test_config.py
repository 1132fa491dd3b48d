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


@pytest.mark.parametrize("t_max", [0.0, 1.5])
def test_dini_probes_must_stay_on_the_segment(t_max):
    with pytest.raises(ValueError):
        RunSettings.from_dict({"dini": {"t_max": t_max}})


def test_dini_probe_may_reach_the_segment_end():
    assert RunSettings.from_dict({"dini": {"t_max": 1.0}}).dini.t_max == 1.0


@pytest.mark.parametrize("doc", [
    {"dini": 5},
    {"dini": {"steps": "3"}},
    {"wstar_density": "9"},
    {"wstar_density": 2.5},
    {"tau_strict": "x"},
    {"tau_strict": None},
    {"eps_list": 3},
    {"eps_list": []},
    {"eps_list": [float("nan")]},
    {"eps_list": [0.1, float("inf")]},
    {"eps_list": [float("-inf")]},
    {"eps_list": [-1.0]},
    {"chain_max_rays": 0},
    {"chain_ray_grid": 1},
])
def test_malformed_values_are_schema_errors(doc):
    with pytest.raises(SchemaError):
        RunSettings.from_dict(doc)
