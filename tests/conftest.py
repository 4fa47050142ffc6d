import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from flatlat import SimplicialComplex, all_flats

import helpers

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def triangles():
    return helpers.glued_triangles_complex()


@pytest.fixture(scope="session")
def triangles_flats(triangles):
    return all_flats(triangles)


@pytest.fixture(scope="session")
def nonreal6():
    return helpers.nonrealizable6_lattice()


@pytest.fixture(scope="session")
def chain3():
    return helpers.chain_lattice(3, ["B", "m", "T"])


@pytest.fixture(scope="session")
def u24():
    return helpers.uniform_complex(4, 2)


@pytest.fixture(scope="session")
def u34():
    return helpers.uniform_complex(4, 3)


@pytest.fixture(scope="session")
def nonbr():
    # smallest non boolean-representable complex: only flats are {} and V
    return SimplicialComplex(["1", "2", "3"], [{"1", "2"}, {"3"}])


@pytest.fixture(scope="session")
def empty_faces_cx():
    return SimplicialComplex(["a", "b", "c"], [])


@pytest.fixture(scope="session")
def loops_cx():
    # c is a loop: it appears in no face
    return SimplicialComplex(["a", "b", "c"], [{"a", "b"}])


@pytest.fixture(scope="session")
def fixture_complexes(triangles, u24, u34, nonbr, empty_faces_cx, loops_cx):
    two_point = SimplicialComplex(["a", "b"], [{"a"}, {"b"}])
    return [triangles, u24, u34, nonbr, empty_faces_cx, loops_cx, two_point]
