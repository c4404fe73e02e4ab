import math

import numpy as np
import pytest

import sspg


@pytest.fixture(scope="session", autouse=True)
def dict_rows_equal_array_rows():
    """Every model the suite builds from rows gives back those rows from its arrays alone.

    Rows with a zero, negative or non-finite entry are skipped: the arrays
    do not keep them, and only :func:`sspg.validate_model` reads them.
    """
    init = sspg.GameModel.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        derived = sspg.GameModel._from_arrays(self.states, self.controls1, self.controls2, self.P, self.C)
        for t, row in self.transitions.items():
            if all(p > 0.0 and math.isfinite(p) and math.isfinite(c) for _, p, c in row):
                assert derived.transitions[t] == row, t

    sspg.GameModel.__init__ = checked
    yield
    sspg.GameModel.__init__ = init


@pytest.fixture(scope="session")
def everett():
    return sspg.load_bundled_model("everett")


@pytest.fixture(scope="session")
def zerocost():
    return sspg.load_bundled_model("zerocost")


@pytest.fixture(scope="session")
def pursuit():
    return sspg.load_bundled_model("pursuit")


@pytest.fixture(scope="session")
def self_loop():
    """Single state, single controls, p(stay)=p(stop)=1/2, unit cost."""
    return sspg.load_model(
        """
        {"states": ["1"],
         "controls1": {"1": ["a"]},
         "controls2": {"1": ["x"]},
         "transitions": [
           {"i": "1", "u": "a", "v": "x",
            "next": [{"j": "0", "p": 0.5, "cost": 1.0},
                     {"j": "1", "p": 0.5, "cost": 1.0}]}]}
        """
    )


def make_terminal_only(seed=0, n_states=3, max_controls=2, cost_range=(0.0, 1.0)):
    """Every transition goes straight to the terminal state."""
    return sspg.generate_model(
        sspg.GeneratorConfig(
            n_states=n_states,
            max_controls=max_controls,
            termination_floor=1.0,
            cost_range=cost_range,
            family="contraction",
            seed=seed,
        )
    )


def make_contraction(seed=0, n_states=3, max_controls=2, kappa=0.1, cost_range=(0.0, 1.0)):
    return sspg.generate_model(
        sspg.GeneratorConfig(
            n_states=n_states,
            max_controls=max_controls,
            termination_floor=kappa,
            cost_range=cost_range,
            family="contraction",
            seed=seed,
        )
    )


def make_ring(n_states=10):
    """One end component of every state: each row but (a, x) steps around a ring at cost 1; (a, x) stops."""
    states = [str(i) for i in range(1, n_states + 1)]
    rows = {(s, u, v): [(states[(k + 1) % n_states], 1.0, 1.0)]
            for k, s in enumerate(states) for u in "ab" for v in "xy"}
    rows.update({(s, "a", "x"): [("0", 1.0, 1.0)] for s in states})
    return sspg.GameModel(states, dict.fromkeys(states, ["a", "b"]), dict.fromkeys(states, ["x", "y"]), rows)


def random_policy(m, player, rng):
    """Random fully-mixed stationary policy."""
    ctrl = m.controls1 if player == sspg.PLAYER_MIN else m.controls2
    rules = {s: rng.dirichlet(np.ones(len(ctrl[s]))) for s in m.states}
    return sspg.StationaryPolicy(player, rules)


def random_values(m, rng, scale=10.0):
    return rng.uniform(-scale, scale, size=m.n)


def random_qtable(m, rng, scale=10.0):
    return rng.uniform(-scale, scale, size=m.n_triplets)
