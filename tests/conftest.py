import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import small_test_algebras
from skewstone.catalog import (
    boolean_algebra,
    left_three,
    one_element,
    right_three,
)


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
