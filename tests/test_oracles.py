"""The test-only problem builder checks what it is given."""

import numpy as np
import pytest

from oracles import ProblemBuilder


def test_builder_validations():
    b = ProblemBuilder()
    b.add_variables(["p"], 0.0, 1.0, [True])
    with pytest.raises(ValueError, match="no constraint"):
        b.build()
    b2 = ProblemBuilder()
    b2.add_variables(["x"], 0.0, 1.0, [False])
    with pytest.raises(ValueError, match="duplicate"):
        b2.add_variables(["x"], 0.0, 1.0, [False])
    with pytest.raises(ValueError, match="finite box"):
        b2.add_variables(["z"], 0.0, np.inf, [False])
    with pytest.raises(ValueError, match="unknown variable"):
        b2.add_rows(["nope"], [[1.0]], [1.0])


def test_unknown_name_in_objective_is_a_value_error():
    b = ProblemBuilder()
    b.add_variables(["x"], 0.0, 1.0, [False])
    with pytest.raises(ValueError, match="unknown variable 'y' in objective"):
        b.add_quadratic(["x", "y"], np.eye(2), np.zeros(2))
