"""Reference transition matrices of the tree-indexed hard-core chain.

They are written here from the model's definitions, not imported from the
package, so the oracle's conditional distributions, the certificates and the
sampler are checked against matrices that share no code with them. Rows are
indexed by the parent's spin (0 empty, 1 occupied). A child whose subtree
carries boundary-law value z is occupied with odds lam*z when its parent is
empty, and never when its parent is occupied.
"""

from collections import namedtuple

Matrix = namedtuple("Matrix", "p00 p01 p10 p11")


def single_step_matrix(params, z):
    """Parent-to-child transitions when the child's subtree carries value z."""
    w = params.lam * z
    return Matrix(1.0 / (1.0 + w), w / (1.0 + w), 1.0, 0.0)


def two_step_matrix(params, z1, z2):
    """Grandparent-to-grandchild transitions through an alternating pair.

    The product of single_step_matrix at z1 and at z2, with each entry written
    out so it is one rounding step from the inputs: u = lam*z1, v = lam*z2.
    """
    u, v = params.lam * z1, params.lam * z2
    d = (1.0 + u) * (1.0 + v)
    return Matrix((1.0 + u + u * v) / d, v / d, 1.0 / (1.0 + v), v / (1.0 + v))

