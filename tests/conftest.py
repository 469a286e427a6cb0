"""Shared fixtures: the desk-scale groups and their enumerated morphism lists.

Enumerations at (p, n) = (3, 1) are cheap enough to share session-wide;
anything larger is built inside the test that needs it.
"""

import pytest

from extraspecial.groups import ES1, ES2, group
from extraspecial.morphisms import enumerate_morphisms


@pytest.fixture(scope="session")
def es1_31():
    return group(ES1, 3, 1)


@pytest.fixture(scope="session")
def es2_31():
    return group(ES2, 3, 1)


@pytest.fixture(scope="session")
def es1_51():
    return group(ES1, 5, 1)


@pytest.fixture(scope="session")
def es2_51():
    return group(ES2, 5, 1)


@pytest.fixture(scope="session")
def es1_32():
    return group(ES1, 3, 2)


@pytest.fixture(scope="session")
def es2_32():
    return group(ES2, 3, 2)


@pytest.fixture(scope="session")
def endos_es1_31(es1_31):
    return list(enumerate_morphisms(es1_31))


@pytest.fixture(scope="session")
def endos_es2_31(es2_31):
    return list(enumerate_morphisms(es2_31))


@pytest.fixture(scope="session")
def autos_es1_31(es1_31):
    return list(enumerate_morphisms(es1_31, True))


@pytest.fixture(scope="session")
def autos_es2_31(es2_31):
    return list(enumerate_morphisms(es2_31, True))
