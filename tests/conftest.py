import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import ispaces as I

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def l3():
    return I.linear_order_space(3)


@pytest.fixture(scope="session")
def k23():
    return I.geodesic_space_from_graph(I.complete_bipartite_graph(2, 3))


TRIANGLE_POINTS = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 0)]


@pytest.fixture(scope="session")
def triangle():
    return I.vector_space_on_points(TRIANGLE_POINTS)


def space_strategy(min_n=1, max_n=5):
    """Uniform over sizes, then uniform over the free-orbit encodings."""

    def for_n(n):
        enc = I.FreeOrbitEncoding(n)
        return st.integers(0, enc.space_count - 1).map(enc.decode)

    return st.integers(min_n, max_n).flatmap(for_n)


def space_with_masks(min_n=1, max_n=5, masks=1):
    """A space plus `masks` subset bit masks over its universe."""

    def attach(space):
        mask = st.integers(0, (1 << space.n) - 1)
        return st.tuples(st.just(space), *[mask] * masks)

    return space_strategy(min_n, max_n).flatmap(attach)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
