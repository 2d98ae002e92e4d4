from pathlib import Path

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


def test_readme_library_example_runs():
    # a public name the example uses and the package no longer has fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["result"].guaranteed_digits >= 100
