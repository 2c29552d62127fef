import io
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

sys.path.insert(0, str(Path(__file__).parent))

from multigroup import catalog, cli  # noqa: E402
from multigroup.subspaces import is_subspace  # noqa: E402
from oracles import subset_op_combinations  # noqa: E402

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

# fixtures small enough for exhaustive subset scans
SMALL_FIXTURE_NAMES = ("gf3", "gf5", "z6units", "z2link", "z2z3", "z2z2",
                       "s3", "z6", "klein", "trivial")


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus_groups()


@pytest.fixture(scope="session")
def gf3():
    return catalog.gf3()


@pytest.fixture(scope="session")
def z2z3():
    return catalog.z2_z3()


@pytest.fixture(scope="session")
def z2z2():
    return catalog.z2_z2()


@pytest.fixture(scope="session")
def small_spaces():
    """Valid multi-space fixtures with universe size at most 8, by name."""
    return dict(small_space_catalog())


def small_space_catalog():
    return {
        "gf3": catalog.gf3(),
        "gf5": catalog.prime_field(5),
        "z6units": catalog.z6_with_units(),
        "z2link": catalog.linked_z2s(),
        "z2z3": catalog.z2_z3(),
        "z2z2": catalog.z2_z2(),
        "s3": catalog.single(catalog.symmetric_3()),
        "z6": catalog.single(catalog.cyclic(6)),
        "klein": catalog.single(catalog.klein_four()),
        "trivial": catalog.trivial_space(),
    }


@pytest.fixture(scope="session")
def instance_dir():
    return INSTANCE_DIR


def subspaces_of(ms):
    return [s for s in subset_op_combinations(ms) if is_subspace(ms, s)]


def run_cli(argv):
    """Invoke the CLI in process, returning (stdout text, exit code)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return buffer.getvalue(), code


def relabel(group, names, op_id):
    """The same group structure over fresh element names."""
    from multigroup.groups import FiniteGroup
    mapping = dict(zip(group.carrier, names))
    table = tuple(tuple(mapping[x] for x in row) for row in group.table)
    return FiniteGroup(op_id, tuple(mapping[e] for e in group.carrier), table,
                       mapping[group.identity])


def overlapping_pair_family(max_universe=8):
    """All valid two-group spaces from small pieces over every tail/head
    carrier overlap, a search space nobody hand-picked."""
    from multigroup.spaces import MultiGroupSpace, validate_multigroup
    pieces = [catalog.cyclic(2), catalog.cyclic(3), catalog.cyclic(4),
              catalog.klein_four(), catalog.symmetric_3()]
    spaces = []
    for g1 in pieces:
        for g2 in pieces:
            for overlap in range(0, min(g1.order, g2.order) + 1):
                total = g1.order + g2.order - overlap
                if total > max_universe:
                    continue
                names = [f"n{i}" for i in range(total)]
                first = relabel(g1, names[:g1.order], "p")
                second = relabel(
                    g2, names[g1.order - overlap: g1.order - overlap + g2.order],
                    "q")
                ms = MultiGroupSpace(tuple(names), (first, second))
                if validate_multigroup(ms).ok:
                    spaces.append(ms)
    return spaces


def overlapping_chain_family(max_universe=9):
    """All valid three-group spaces p, q, r from the pair family's pieces,
    each overlapping the tail of the one before it by any amount up to the
    smaller of the two (r may then reach into p as well)."""
    from multigroup.spaces import MultiGroupSpace, validate_multigroup
    pieces = [catalog.cyclic(2), catalog.cyclic(3), catalog.cyclic(4),
              catalog.klein_four(), catalog.symmetric_3()]
    spaces = []
    for g1, g2, g3 in product(pieces, repeat=3):
        for o1 in range(min(g1.order, g2.order) + 1):
            for o2 in range(min(g2.order, g3.order) + 1):
                start2 = g1.order - o1
                start3 = start2 + g2.order - o2
                total = start3 + g3.order
                if total > max_universe:
                    continue
                names = [f"n{i}" for i in range(total)]
                groups = (relabel(g1, names[:g1.order], "p"),
                          relabel(g2, names[start2:start2 + g2.order], "q"),
                          relabel(g3, names[start3:], "r"))
                ms = MultiGroupSpace(tuple(names), groups)
                if validate_multigroup(ms).ok:
                    spaces.append(ms)
    return spaces
