import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the benchmark's oracles (perfbench/oracles.py), which the tests' oracles
# (definitions.py) read the facts they share from
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from catalog import (
    boolean_algebra,
    left_three,
    one_element,
    right_three,
)
from helpers import small_test_algebras


@pytest.fixture
def three():
    return right_three()


@pytest.fixture
def mirror_three():
    return left_three()


@pytest.fixture
def bool4():
    return boolean_algebra(2)


@pytest.fixture
def trivial():
    return one_element()


@pytest.fixture(scope="session")
def catalog():
    return small_test_algebras()
