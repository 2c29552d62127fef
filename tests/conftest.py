import io
import sys
from contextlib import redirect_stdout
from functools import cached_property
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

sys.path.insert(0, str(Path(__file__).parent))

import catalog  # noqa: E402
from catalog import INSTANCE_DIR, relabel  # noqa: E402
from multigroup import cli  # noqa: E402
from multigroup.groups import FiniteGroup  # noqa: E402
from multigroup.spaces import MultiGroupSpace, validate_multigroup  # noqa: E402
from multigroup.subspaces import SubsetRef, is_subspace  # noqa: E402
from oracles import subset_op_combinations  # noqa: E402

# fixtures small enough for exhaustive subset scans
SMALL_FIXTURE_NAMES = ("gf3", "gf5", "z6units", "z2link", "z2z3", "z2z2",
                       "s3", "z6", "klein", "trivial")


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus_groups()


@pytest.fixture(scope="session")
def gf3():
    return catalog.shipped("gf3")


@pytest.fixture(scope="session")
def z2z3():
    return catalog.shipped("z2z3")


@pytest.fixture(scope="session")
def z2z2():
    return catalog.shipped("z2z2")


@pytest.fixture(scope="session")
def small_spaces():
    """Valid multi-space fixtures with universe size at most 8, by name."""
    return small_space_catalog()


def small_space_catalog():
    return {name: catalog.shipped(name) for name in SMALL_FIXTURE_NAMES}


@pytest.fixture(scope="session")
def instance_dir():
    return INSTANCE_DIR


def subspaces_of(ms):
    return [s for s in subset_op_combinations(ms) if is_subspace(ms, s)]


def ref(ms, elements, ops=None):
    return SubsetRef.of(ms, elements, ops)


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle must raise the same
        return type(exc), str(exc)


def run_cli(argv):
    """Invoke the CLI in process, returning (stdout text, exit code)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return buffer.getvalue(), code


def count_lattices(monkeypatch):
    """The groups whose lattice is evaluated from now on, one entry per
    evaluation; a group's lattice is cached on it, so it is evaluated at
    most once per group object."""
    lattice = FiniteGroup.__dict__["_lattice"]
    evaluations = []

    def counted(group):
        evaluations.append(group)
        return lattice.func(group)

    counting = cached_property(counted)
    counting.__set_name__(FiniteGroup, "_lattice")
    monkeypatch.setattr(FiniteGroup, "_lattice", counting)
    return evaluations


def instance_text(ms):
    """The instance file text of a space."""
    lines = ["elements: " + " ".join(ms.universe)]
    for g in ms.groups:
        lines += [f"group {g.op_id}:", "  carrier: " + " ".join(g.carrier),
                  f"  identity: {g.identity}", "  table:"]
        lines += [f"    {a}: " + " ".join(row) for a, row in zip(g.carrier, g.table)]
    return "\n".join(lines) + "\n"


# the pieces of the pair and chain families
PIECES = (catalog.cyclic(2), catalog.cyclic(3), catalog.cyclic(4), catalog.klein_four(),
          catalog.symmetric_3())


def overlapping_pair_family(max_universe=8):
    """All valid two-group spaces from small pieces over every tail/head
    carrier overlap, a search space nobody hand-picked."""
    spaces = []
    for g1 in PIECES:
        for g2 in PIECES:
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


def chain_layouts(max_universe=9):
    """Every three-group space p, q, r from the pair family's pieces, valid
    or not, each overlapping the tail of the one before it by any amount up
    to the smaller of the two (r may then reach into p as well)."""
    for g1, g2, g3 in product(PIECES, repeat=3):
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
                yield MultiGroupSpace(tuple(names), groups)


def overlapping_chain_family(max_universe=9):
    """The valid spaces among chain_layouts."""
    return [ms for ms in chain_layouts(max_universe) if validate_multigroup(ms).ok]
