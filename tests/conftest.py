import itertools
import os
import sys

import pytest

# allow running the suite from a fresh checkout without installing
_src = os.path.join(os.path.dirname(__file__), "..", "src")
if not any(os.path.samefile(p, _src) if os.path.exists(p) else False for p in sys.path):
    sys.path.insert(0, os.path.abspath(_src))

from superscheme.fields import Field  # noqa: E402
from superscheme.supercoalgebra import is_grouplike_over  # noqa: E402
from superscheme.superlinear import Subspace, unit_vec  # noqa: E402


def grouplikes_by_scan(C, R):
    """Reference for supercoalgebra.grouplikes_over: every even u in R (x) C,
    in mixed radix over the even slots (R basis major, C basis minor), kept
    when it is group-like."""
    F = C.field
    slots = [(a, m) for a in range(R.dim) for m in range(C.dim)
             if R.parity(a) == C.parity(m)]
    out = []
    for values in itertools.product(sorted(F.elements(), key=F.sort_key),
                                    repeat=len(slots)):
        u = [[F.zero] * C.dim for _ in range(R.dim)]
        for (a, m), c in zip(slots, values):
            u[a][m] = c
        u = tuple(map(tuple, u))
        if is_grouplike_over(C, R, u):
            out.append(u)
    return out


@pytest.fixture
def grouplike_oracle():
    return grouplikes_by_scan


def ideal_by_fixpoint(A, elements):
    """Reference for superalgebra.ideal_generated_by: grow the span of the
    elements by the products b_i * x with every basis vector until it is
    stable."""
    F = A.field
    current = Subspace.from_vectors(A.space, list(elements))
    while True:
        vecs = list(current.basis())
        for x in current.basis():
            for i in range(A.dim):
                vecs.append(A.multiply(unit_vec(F, A.dim, i), x))
        grown = Subspace.from_vectors(A.space, vecs)
        if grown == current:
            return current
        current = grown


@pytest.fixture
def ideal_oracle():
    return ideal_by_fixpoint


class GenericField(Field):
    """Computes by an inner PrimeField or Q without being one, so every
    kernel of superlinear takes its generic path through the Field methods:
    the oracle for the plain-value kernels over F_p and Q."""

    def __init__(self, inner):
        self.inner = inner
        self.char, self.order = inner.char, inner.order
        self.zero, self.one = inner.zero, inner.one

    def add(self, a, b):
        return self.inner.add(a, b)

    def neg(self, a):
        return self.inner.neg(a)

    def mul(self, a, b):
        return self.inner.mul(a, b)

    def inv(self, a):
        return self.inner.inv(a)

    def elements(self):
        return self.inner.elements()

    def describe(self):
        return f"generic {self.inner.describe()}"

    def __eq__(self, other):
        return isinstance(other, GenericField) and other.inner == self.inner

    def __hash__(self):
        return hash(("generic", self.inner))


@pytest.fixture(scope="session")
def generic_field():
    return GenericField
