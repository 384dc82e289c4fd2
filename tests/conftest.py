import itertools
import pathlib

import pytest

import locglob as lg

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

NC_POINTS = frozenset({"x", "y", "z", "p", "q", "r"})
NC_BASIS = [{"x", "p", "q"}, {"y", "p", "r"}, {"z", "r", "q"},
            {"p"}, {"q"}, {"r"}]


@pytest.fixture
def sp_disc2():
    return lg.space_from_basis({"1", "2"}, [{"1"}, {"2"}])


@pytest.fixture
def sp_ind2():
    return lg.space_from_basis({"1", "2"}, [])


@pytest.fixture
def sp_sier():
    # minimal opens: m(1) = {1, 2}, m(2) = {2}
    return lg.space_from_basis({"1", "2"}, [{"2"}])


@pytest.fixture(scope="session")
def sp_nc():
    return lg.space_from_basis(NC_POINTS, NC_BASIS)


@pytest.fixture(scope="session")
def nc_pair(sp_nc):
    return lg.pair_groupoid(sp_nc.points)


@pytest.fixture(scope="session")
def a_nc(sp_nc, nc_pair):
    c1 = lg.wide_subgroupoid(nc_pair, {"x", "p", "q"})
    c2 = lg.wide_subgroupoid(nc_pair, {"y", "p", "r"}, {"p:r", "r:p"})
    c3 = lg.wide_subgroupoid(nc_pair, {"z", "r", "q"}, {"r:q", "q:r"})
    return lg.Atlas(sp_nc, ((frozenset({"x", "p", "q"}), c1),
                            (frozenset({"y", "p", "r"}), c2),
                            (frozenset({"z", "r", "q"}), c3)))


@pytest.fixture(scope="session")
def s_nc(a_nc):
    return lg.section_from_atlas(a_nc)


@pytest.fixture(scope="session")
def suite36():
    return lg.instance_suite(3, 6)


@pytest.fixture(scope="session")
def suite412():
    return lg.instance_suite(4, 12)


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


def subsets(points) -> list:
    """Every subset of `points`, by size, then by sorted labels."""
    labels = sorted(points)
    return [frozenset(c) for k in range(len(labels) + 1)
            for c in itertools.combinations(labels, k)]
