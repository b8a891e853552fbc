"""Reference operators that the tests check the package against.

No command needs them, so they are not part of ``liouvar``.
"""

from __future__ import annotations

from typing import Iterable

from liouvar.expr import NormalForm, differentiate, nf_add, nf_neg, normal_form
from liouvar.exterior import (
    DiffForm,
    Space,
    VectorField,
    exterior_derivative,
    interior_product,
)


def lie_derivative(v: VectorField, a: DiffForm) -> DiffForm:
    """Cartan formula; for top-degree forms only the d(v ⌟ a) term remains."""
    assert v.space == a.space
    if a.degree == 0:
        return interior_product(v, exterior_derivative(a))
    if a.degree == a.space.dim:
        return exterior_derivative(interior_product(v, a))
    return interior_product(v, exterior_derivative(a)) + exterior_derivative(interior_product(v, a))


def curl3(space: Space, components: Iterable[NormalForm]) -> tuple[NormalForm, ...]:
    """Curl of a 3-component field over the three coordinates of ``space``."""
    assert space.dim == 3
    a1, a2, a3 = (normal_form(a) for a in components)
    x1, x2, x3 = space.coordinates

    def rot(a, x, b, y):
        return nf_add(differentiate(a, x), nf_neg(differentiate(b, y)))

    return rot(a3, x2, a2, x3), rot(a1, x3, a3, x1), rot(a2, x1, a1, x2)
