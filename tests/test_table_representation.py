"""The table representation: every algebra holds its four operation tables
as read-only, C-contiguous int16 n x n arrays, whatever built it; algebras
compare and hash by value; malformed tables are refused with fixed
messages; and no NumPy scalar reaches a value the CLI prints."""

import json
import random
import subprocess
import sys

import numpy as np
import pytest

from catalog import boolean_algebra, right_three
from helpers import retabled
from skewstone import (
    Homomorphism,
    SizeCapError,
    SkewAlgebra,
    StructuralError,
    algebra_roundtrip_iso,
    dual_algebra,
    enumerate_homs,
    green_partitions,
    ideal_congruence,
    make_algebra,
    mirror,
    partial_map_algebra,
    product_band,
    quotient_by,
    random_space,
    skew_spectrum,
    validate_algebra,
    validate_hom,
)
from skewstone.core_algebra import TABLE_N, subalgebra_on
from skewstone.jsonio import algebra_from_dict, algebra_to_dict, dumps

OPS = ("meet", "join", "diff", "cap")


ROUTES = ("make_algebra", "dual_algebra", "partial_map_algebra", "mirror", "quotient_by",
          "subalgebra_on")


@pytest.fixture(scope="module")
def built():
    """An algebra from every construction route, by route name."""
    section, _ = dual_algebra(random_space(2, 3, seed=4, band=("product", 2, 2)))
    return {
        "make_algebra": make_algebra(3, 0, [[0, 0, 0], [0, 1, 2], [0, 1, 2]],
                                     [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
                                     [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
                                     [[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
        "dual_algebra": section,
        "partial_map_algebra": partial_map_algebra(2, 2, product_band(2, 1))[0],
        "mirror": mirror(section),
        "quotient_by": quotient_by(section, green_partitions(section)[0])[0],
        "subalgebra_on": subalgebra_on(right_three(), (0, 1))[0],
    }


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_gives_read_only_int16_tables(built, route):
    algebra = built[route]
    for op in OPS:
        table = getattr(algebra, op + "_table")
        assert isinstance(table, np.ndarray)
        assert table.dtype == np.int16
        assert table.shape == (algebra.n, algebra.n)
        assert table.flags.c_contiguous
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


@pytest.mark.parametrize("route", ROUTES)
def test_json_round_trip_is_equal_with_equal_hash(built, route):
    algebra = built[route]
    back = algebra_from_dict(json.loads(dumps(algebra_to_dict(algebra))))
    assert back is not algebra
    assert back == algebra
    assert hash(back) == hash(algebra)


def test_one_changed_entry_breaks_equality(built):
    algebra = built["dual_algebra"]
    changed = retabled(algebra, "cap", [(1, 2, (algebra.cap(1, 2) + 1) % algebra.n)])
    assert changed != algebra
    assert mirror(mirror(algebra)) == algebra


@pytest.mark.parametrize("tables, message", [
    (([[0]],), "meet table has 1 rows, expected 2"),
    (([[0, 0], [0]],), "meet table row 1 has length 1"),
    (([[0, 0], [0, 2]],), "meet[1] contains invalid entry 2"),
    (([[0, 0], [-1, 1]],), "meet[1] contains invalid entry -1"),
    (([[0, 0.5], [0, 1]],), "meet[0] contains invalid entry 0.5"),
    (([[0, 0], [0, 1]], [[0, 1], ["1", 1]]), "join[1] contains invalid entry '1'"),
    ((np.array([[0, 0], [0, 1]], dtype=object),), "meet table is not an integer table"),
    ((np.array([[0, 0], [0, 1]], dtype=bool),), "meet table is not an integer table"),
    (([[0, 0], [0, True]],), "meet[1] contains invalid entry True"),
    (([[0, 0], [0, np.True_]],), "meet[1] contains invalid entry np.True_"),
], ids=["row_count", "short_row", "out_of_range", "negative", "non_integer",
        "string_in_later_table", "object_array", "bool_array", "bool_among_ints",
        "numpy_bool_among_ints"])
def test_malformed_table_messages(tables, message):
    good = [[0, 0], [0, 1]]
    given = list(tables) + [good] * (4 - len(tables))
    with pytest.raises(StructuralError) as err:
        SkewAlgebra(2, 0, *given)
    assert str(err.value) == message


@pytest.mark.parametrize("n, zero, message", [
    (True, 0, "n = True is not an integer"), (1, False, "zero index False out of range"),
], ids=["n", "zero"])
def test_direct_constructor_refuses_bools(n, zero, message):
    # a bool n or zero once passed as 1 or 0
    with pytest.raises(StructuralError) as err:
        SkewAlgebra(n, zero, [[0]], [[0]], [[0]], [[0]])
    assert str(err.value) == message


@pytest.mark.parametrize("n, zero, table, message", [
    (1, 1, [[0]], "zero index 1 out of range"),
    (2, 2, [[0, 0], [0, 1]], "zero index 2 out of range"),
    (0, 0, [], "carrier must be non-empty"),
], ids=["zero_is_n_1", "zero_is_n_2", "n_is_0"])
def test_make_algebra_refuses_a_zero_or_carrier_at_the_boundary(n, zero, table, message):
    with pytest.raises(StructuralError) as err:
        make_algebra(n, zero, table, table, table, table)
    assert str(err.value) == message


TOO_MANY = "n = 32769 is past TABLE_N = 32768: operation tables hold element indices as int16"


@pytest.mark.parametrize("route", ["SkewAlgebra", "make_algebra", "algebra_from_dict"])
def test_a_carrier_past_int16_is_refused_before_its_tables(route):
    """Tables hold element indices as int16, so n is at most 2**15.  Past
    it, every route refuses n with SizeCapError before it reads a table:
    entries that are no integers are not reached.  n = 2**15 passes the cap
    and fails at the row count."""
    build = {"SkewAlgebra": SkewAlgebra, "make_algebra": make_algebra,
             "algebra_from_dict": lambda n, zero, *tables: algebra_from_dict(
                 dict(zip(("n", "zero") + OPS, (n, zero) + tables)))}[route]
    assert TABLE_N == 2 ** 15 == np.iinfo(np.int16).max + 1
    with pytest.raises(SizeCapError) as err:
        build(TABLE_N + 1, 0, [["x"]], [["x"]], [["x"]], [["x"]])
    assert str(err.value) == TOO_MANY
    with pytest.raises(StructuralError) as err:
        build(TABLE_N, 0, [[0]], [[0]], [[0]], [[0]])
    assert str(err.value) == "meet table has 1 rows, expected 32768"


@pytest.mark.parametrize("n, zero, meet", [
    (True, 0, [[0]]), (1, False, [[0]]), (1, 0, [[False]]), (2, 0, [[0, 0], [0, True]]),
], ids=["n", "zero", "table", "entry_among_ints"])
def test_make_algebra_refuses_bools(n, zero, meet):
    # JSON's true and false once passed as 1 and 0
    good = [[0]] if len(meet) == 1 else [[0, 0], [0, 1]]
    with pytest.raises(TypeError, match="'bool' object cannot be interpreted"):
        make_algebra(n, zero, meet, good, good, good)
    # NumPy integers are integers
    good = [[0, 0], [0, 1]]
    assert (make_algebra(np.int64(2), np.int32(0), np.array(good), good, good, good)
            == make_algebra(2, 0, good, good, good, good))


def plain_ints(value):
    """True when every number in value, through nested tuples and lists, is
    a Python int (NumPy 2 would print a NumPy scalar as np.int32(3))."""
    if isinstance(value, (tuple, list)):
        return all(plain_ints(v) for v in value)
    return type(value) is int


def test_no_numpy_scalar_reaches_printed_values(built):
    section, _ = dual_algebra(random_space(2, 2, seed=1, band="none"))
    three = right_three()
    for A in built.values():
        assert type(A.n) is int and type(A.zero) is int
        for op in OPS:
            assert all(type(getattr(A, op)(x, y)) is int for x in A.elements for y in A.elements)
    rng = random.Random(5)
    witnesses = []
    for A in (three, section):
        for _ in range(20):
            op = rng.choice(OPS)
            x, y = rng.randrange(A.n), rng.randrange(A.n)
            report = validate_algebra(retabled(A, op, [(x, y, (getattr(A, op)(x, y) + 1) % A.n)]))
            witnesses += [w for _, w in report.failures + report.warnings]
    assert len(witnesses) > 20 and plain_ints(witnesses)
    homs = enumerate_homs(boolean_algebra(1), three)
    assert homs and all(plain_ints(f.map) for f in homs)
    assert plain_ints(algebra_roundtrip_iso(section).map)
    bad = validate_hom(Homomorphism(three, three, (0, 1, 1)))
    assert bad.failures and plain_ints([w for _, w in bad.failures])
    for part in green_partitions(section):
        assert plain_ints(part.labels) and plain_ints(part.blocks)
    space, points = skew_spectrum(section)
    assert all(type(pt.prime) is int and type(pt.rep) is int for pt in points)
    assert plain_ints(space.p)
    assert plain_ints(ideal_congruence(section, (section.zero,)).labels)
    assert plain_ints(quotient_by(section, green_partitions(section)[0])[1])
    assert plain_ints(subalgebra_on(three, (0, 1))[1])


HALF_SIZE_TABLES = """
import os
import resource
import numpy as np
# exec keeps the high-water mark of the process it replaces, here a spawn of
# the test process, so the run is a fork of this fresh interpreter, whose
# mark starts from its own few MiB
if os.fork():
    raise SystemExit(os.waitstatus_to_exitcode(os.wait()[1]))
from skewstone import algebra_roundtrip_iso, dual_algebra, make_space, validate_algebra
A = dual_algebra(make_space(18, 6, [b for b in range(6) for _ in range(3)]))[0]
assert A.n == 4096 and validate_algebra(A).ok
target = algebra_roundtrip_iso(A).target
for algebra in (A, target):
    for name in ("meet", "join", "diff", "cap"):
        T = getattr(algebra, name + "_table")
        assert T.dtype == np.int16 and T.shape == (4096, 4096), name
        assert T.flags.c_contiguous and not T.flags.writeable, name
block = A.meet_table.base
assert all(getattr(A, name + "_table").base is block for name in ("join", "diff", "cap"))
assert block.nbytes == 128 * 2 ** 20, block.nbytes
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
assert rss < 320, rss
"""


def test_half_size_tables_on_six_plain_fibers_of_three():
    """At n = 4096 every table of A and of the round trip's target is a
    read-only, C-contiguous int16 array, A's four in one 128 MiB block, and
    a process that builds A, checks its laws and makes the round trip peaks
    under 320 MiB (546 MiB when the tables were int32).  ru_maxrss is the
    high-water mark of a whole process, so the run is a process of its own."""
    proc = subprocess.run([sys.executable, "-c", HALF_SIZE_TABLES],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
