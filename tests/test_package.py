import pytest

import rationalpi
from rationalpi import fixedpoint, formulas, series


@pytest.mark.parametrize("module", (fixedpoint, series, formulas), ids=lambda m: m.__name__)
def test_every_public_name_of_a_layer_is_public_at_the_top_level(module):
    missing = [
        name for name in module.__all__
        if getattr(rationalpi, name, None) is not getattr(module, name)
    ]
    assert missing == []
