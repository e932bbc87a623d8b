import pytest

from ck_spectra import Bundle, Graph, OMEGA, ea_graph, running_example


@pytest.fixture(scope="session")
def fixture():
    return running_example()


@pytest.fixture(scope="session")
def g7(fixture):
    return fixture.graph


@pytest.fixture(scope="session")
def three_chain():
    """bullet <- bullet -> bullet: a union of tails that is not a cluster."""
    return Graph(["a", "b", "c"], [Bundle("b", "a"), Bundle("b", "c")])


@pytest.fixture(scope="session")
def single_loop():
    return Graph(["a"], [Bundle("a", "a")])


@pytest.fixture(scope="session")
def single_sink():
    return Graph(["a"])


@pytest.fixture(scope="session")
def remark_graph():
    """v emits OMEGA to w plus double loops at both ends; {v} is a cluster and v in FR."""
    return Graph(
        ["v", "w"],
        [Bundle("v", "w", OMEGA), Bundle("v", "v", 2), Bundle("w", "w", 2)],
    )


@pytest.fixture(scope="session")
def long_cycle():
    """A plain 1,500-vertex cycle, longer than the default recursion limit."""
    names = [f"v{i}" for i in range(1500)]
    return Graph(names, [Bundle(a, b) for a, b in zip(names, names[1:] + names[:1])])


@pytest.fixture(scope="session")
def ea2_omega():
    return ea_graph(["a", "b"], OMEGA)


@pytest.fixture(scope="session")
def ea3_omega():
    return ea_graph(["a", "b", "c"], OMEGA)
