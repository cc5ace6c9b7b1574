"""The analytic initial data exist at one intrinsic dimension each."""

import pytest

from mcflab import shapes
from mcflab.grid import GridSpec


@pytest.mark.parametrize("make, m, message", [
    (shapes.circle, 2, "circle requires m=1"),
    (shapes.ellipse, 2, "ellipse requires m=1"),
    (shapes.product_torus, 1, "product torus requires m=2"),
    (shapes.perturbed_torus, 1, "perturbed torus requires m=2"),
])
def test_shape_at_the_wrong_dimension_is_rejected(make, m, message):
    with pytest.raises(ValueError, match=message):
        make(GridSpec(m, 8))
