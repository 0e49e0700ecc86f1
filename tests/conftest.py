import random

import pytest

from qec.laurent import LaurentMatrix
from qec.modules import MatrixModule
from qec.scalars import get_q, set_q


@pytest.fixture(autouse=True)
def _restore_q():
    # tests may switch q; never leak it into the next test
    q0 = get_q()
    yield
    set_q(q0)


@pytest.fixture
def rng():
    return random.Random(20260825)


@pytest.fixture
def gauge():
    """build(g, d) -> MatrixModule of T = G(z)^-1 D(z) G(qz) at the ambient
    q: the module with matrix D written in the basis G, for G of unit
    determinant.  A fixed vector of D is G(z) times one of T, so the fixed
    space of T is G^-1 applied to D's.  g and d are LaurentMatrix objects or
    string rows."""

    def build(g, d):
        g, d = (m if isinstance(m, LaurentMatrix) else LaurentMatrix.from_strs(m) for m in (g, d))
        return MatrixModule(MatrixModule(g).inverse() * d * g.qshift(1))

    return build
