import numpy as np
import pytest

from flagcurv.liealg import build_lie_algebra
from flagcurv.homspace import SubalgebraSpec, build_space

S = SubalgebraSpec


@pytest.fixture(scope="session")
def sp2():
    return build_lie_algebra("sp", 2)


@pytest.fixture(scope="session")
def sp3():
    return build_lie_algebra("sp", 3)


@pytest.fixture(scope="session")
def su4():
    return build_lie_algebra("su", 4)


@pytest.fixture(scope="session")
def g2():
    return build_lie_algebra("g2")


@pytest.fixture(scope="session")
def sp2_circle21(sp2):
    return build_space(sp2, [S.circle(2, 1)])


@pytest.fixture(scope="session")
def su4_weighted(su4):
    # su(2) block with the circle fixing it, the space of the second catalog entry
    return build_space(su4, [S.block(1, 2), S.circle(1, 1, -1, -1)])


@pytest.fixture(scope="session")
def su4_onecircle(su4):
    # su(2) block with circle weights (1,1,1,-3)
    return build_space(su4, [S.block(1, 2), S.circle(1, 1, 1, -3)])


@pytest.fixture(scope="session")
def sp3_mixed(sp3):
    return build_space(sp3, [S.sp1_block(3), S.circle(1, 3, 0)])


@pytest.fixture(scope="session")
def so7_block5():
    # so(5) on the first five coordinates: regular, with root planes that
    # straddle the canonical ones
    return build_space(build_lie_algebra("so", 7), [S.block(1, 2, 3, 4, 5)])


@pytest.fixture(scope="session")
def g2_short(g2):
    datum = g2.root_datum()
    plane = datum.plane_for_root((1, 0))
    x, y = plane[:, 0], plane[:, 1]
    t = g2.bracket(x, y)
    t /= np.linalg.norm(t)
    mats = [g2.to_matrix(x), g2.to_matrix(y), g2.to_matrix(t)]
    return build_space(g2, [S.explicit(mats)])
