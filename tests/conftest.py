import signal
from contextlib import contextmanager

from hypothesis import HealthCheck, settings, strategies as st

from bcd.syntax import Arrow, Atom, Meet

settings.register_profile(
    "bcd",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("bcd")

ATOMS = ("a", "b", "c", "@")


def atom_strategy(atoms=ATOMS):
    return st.sampled_from(atoms).map(Atom)


def expr_strategy(atoms=ATOMS, max_leaves=25):
    return st.recursive(
        atom_strategy(atoms),
        lambda children: st.builds(Arrow, children, children)
        | st.builds(Meet, children, children),
        max_leaves=max_leaves,
    )


def big_expr_strategy(atoms=ATOMS):
    # up to 199 nodes
    return expr_strategy(atoms, max_leaves=100)


@contextmanager
def alarm(seconds: float, message: str):
    """Raise TimeoutError(message) in the block once seconds have passed."""

    def stop(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
