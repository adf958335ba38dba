"""The one elimination kernel (``determinant._eliminate``) against the
pivot and reduce functions it replaced, kept in ``oracles.py``: fresh,
from a given pivot state, and re-applying kept steps, and det's
elimination of prepared columns (``determinant._prepared_det``), bit
for bit, the sign of zero included, for n = 1..6.  The seeded columns
meet zero columns, ties for the largest |entry|, row swaps, integer
columns with zero leading entries, and float pivot products that
underflow to 0.0, which is still a state."""

import copy
import random

import pytest

from chebconvex.determinant import _eliminate, _prepared_det

from oracles import eliminate, prepared_det, reapply

#: Float entries that make ties for the largest |entry|, zeros of both
#: signs and row swaps common, beside drawn ones.
FLOATS = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-200, -1e-200)


def bits(x):
    """``x`` with every float spelled by its bits (float.hex, which tells
    -0.0 from 0.0), through tuples and lists."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x)(map(bits, x))
    return x


def column(rng: random.Random, n: int, exact: bool) -> list:
    """An n-entry column: now and then all zero, or with zero leading
    entries (exact), or of tiny entries whose products underflow (float)."""
    kind = rng.random()
    if kind < 0.1:
        return [0 if exact else 0.0] * n
    if exact:
        lead = rng.randrange(n) if kind < 0.4 else 0
        return [0] * lead + [rng.randint(-4, 4) for _ in range(n - lead)]
    if kind < 0.25:
        return [rng.choice((1e-200, -1e-200, 3e-201)) for _ in range(n)]
    return [rng.choice(FLOATS) if rng.random() < 0.6 else rng.uniform(-3, 3) for _ in range(n)]


def state(rng: random.Random, exact: bool):
    """A pivot state to start from: a swap sign and a previous pivot, or
    a pivot product, 0.0 and -0.0 (an underflowed product) among them."""
    if exact:
        return rng.choice((1, -1)), rng.choice((1, 2, -3, 7))
    return rng.choice((1.0, -1.0, 0.0, -0.0, 1e-300, -2.5, rng.uniform(-4, 4)))


def reached(cols: list, k: int, exact: bool, seen: set) -> None:
    """What the oracle's elimination of ``cols`` meets, into ``seen``."""
    done = eliminate(cols, k, exact)
    if done is None:
        seen.add("zero pivot column")
        return
    if any(step[0] for step in done[1]):
        seen.add("row swap")
    if not exact and done[0] == 0.0 and k:
        seen.add("underflowed product")
    for c in cols[:k]:
        big = max(map(abs, c))
        if not exact and big and sum(abs(v) == big for v in c) > 1:
            seen.add("tie")
        if exact and c[0] == 0 and any(c):
            seen.add("zero leading entry")


@pytest.mark.parametrize("exact", [True, False])
def test_the_kernel_matches_the_per_step_functions(exact):
    rng = random.Random(37 + exact)
    seen: set = set()
    for _ in range(1500):
        n = rng.randint(1, 6)
        cols = [column(rng, n, exact) for _ in range(rng.randint(n, n + 3))]
        k = rng.randint(0, n - 1)
        given = copy.deepcopy(cols)
        reached(cols, k, exact, seen)
        assert bits(_eliminate(cols, k, exact)) == bits(eliminate(cols, k, exact))
        start = state(rng, exact)
        assert bits(_eliminate(cols, k, exact, start)) == bits(eliminate(cols, k, exact, start))
        assert cols == given        # the columns given are left unchanged
    assert seen >= ({"zero pivot column", "row swap", "zero leading entry"} if exact
                    else {"zero pivot column", "row swap", "tie", "underflowed product"})


@pytest.mark.parametrize("exact", [True, False])
def test_kept_steps_reapplied_reduce_as_the_per_step_functions(exact):
    rng = random.Random(41 + exact)
    for _ in range(1000):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        done = eliminate([column(rng, n, exact) for _ in range(k)], k, exact)
        if done is None:
            continue
        later = [column(rng, n, exact) for _ in range(rng.randint(1, 3))]
        got = _eliminate(later, 0, exact, done[0], done[1])
        assert bits(got) == bits((done[0], done[1], reapply(later, done[1], exact)))


@pytest.mark.parametrize("exact", [True, False])
def test_prepared_determinants_match_bit_for_bit(exact):
    rng = random.Random(43 + exact)
    for _ in range(1500):
        n = rng.randint(1, 6)
        forms = [(column(rng, n, exact), rng.choice((1, 3, 8)) if exact else 1)
                 for _ in range(n)]
        assert bits(_prepared_det(forms, exact)) == bits(prepared_det(forms, exact))


def test_an_underflowed_pivot_product_is_a_state():
    # two pivots of 1e-200 underflow the product to 0.0, which a third
    # step keeps: a default taken with `or` would restart it at 1.0
    cols = [[1e-200, 0.0, 0.0], [0.0, 1e-200, 0.0], [0.0, 0.0, 2.0]]
    product, _, _ = _eliminate(cols[:2], 2, False)
    assert product.hex() == "0x0.0p+0"
    assert bits(_eliminate(cols[2:], 1, False, product)) == bits(
        eliminate(cols[2:], 1, False, product))
    assert _eliminate(cols[2:], 1, False, product)[0] == 0.0
    assert _eliminate([[-1.0, 3.0]], 1, False, -0.0)[0].hex() == "0x0.0p+0"   # swapped
