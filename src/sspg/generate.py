"""Seeded random game generators for experiments and tests.

Three families:

``contraction``
    Every triplet puts at least ``termination_floor`` mass on the terminal
    state, so termination is geometric under every policy pair; all the
    structural assumptions hold and every policy of either player is proper.

``loopy``
    The minimizer's first control always carries substantial termination
    mass, other rows may have none (pure in-game rows), and every cost is
    strictly positive.  Prolonging pairs therefore all have positive-gain
    recurrent classes, the minimizer's all-first-control policy is proper,
    and costs bounded below by zero safeguard the maximizer, so the
    structural assumptions hold while prolonging pairs exist.

``sequential``
    Like ``contraction`` but exactly one player has a non-singleton control
    set at each state, which makes exhaustive deterministic-policy analysis
    cheap and deterministic equilibria exist.

Games are built straight into the kernel arrays: one cost draw of k values per
triplet with k live entries, the same random stream as k scalar draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameModel, _is_number

FAMILIES = ("contraction", "loopy", "sequential")


@dataclass(frozen=True)
class GeneratorConfig:
    n_states: int = 3
    max_controls: int = 2
    termination_floor: float = 0.1
    cost_range: tuple[float, float] = (0.0, 1.0)
    family: str = "contraction"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_states", "max_controls", "seed"):
            value = getattr(self, name)
            if not _is_number(value, integer=True):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not _is_number(self.termination_floor):
            raise ValueError(f"termination_floor must be a real number, got {self.termination_floor!r}")
        cost = self.cost_range
        if not (isinstance(cost, (tuple, list)) and len(cost) == 2 and all(map(_is_number, cost))
                and np.isfinite(float(cost[1]) - float(cost[0]))):
            raise ValueError(f"cost_range must be two finite numbers (lo, hi), got {cost!r}")
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if not 1 <= self.max_controls <= len(_C1):
            # control labels come from the alphabets below
            raise ValueError(f"max_controls must lie in [1, {len(_C1)}]")
        if not 0.0 <= self.termination_floor <= 1.0:
            raise ValueError("termination_floor must lie in [0, 1]")
        lo, hi = self.cost_range
        if lo > hi:
            raise ValueError("cost_range must have lo <= hi")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.family == "loopy" and lo <= 0.0:
            raise ValueError("loopy family needs strictly positive costs (lo > 0)")


_C1 = "abcdefgh"
_C2 = "xyzwpqrs"


def _random_dist(rng: np.random.Generator, n_succ: int) -> np.ndarray:
    """Random distribution over 0..n with a sparse support."""
    w = rng.random(n_succ) * (rng.random(n_succ) < 0.75)
    if not w.any():
        w[rng.integers(n_succ)] = 1.0
    return w / w.sum()


def generate_model(cfg: GeneratorConfig) -> GameModel:
    """Draw a valid game; deterministic in the seed."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_states
    states = [str(i) for i in range(1, n + 1)]
    lo, hi = cfg.cost_range
    kappa = cfg.termination_floor

    controls1, controls2 = {}, {}
    for s in states:
        if cfg.family == "sequential":
            mover = rng.integers(2)
            k = int(rng.integers(2, cfg.max_controls + 1)) if cfg.max_controls > 1 else 1
            controls1[s] = list(_C1[: k if mover == 0 else 1])
            controls2[s] = list(_C2[: k if mover == 1 else 1])
        else:
            controls1[s] = list(_C1[: int(rng.integers(1, cfg.max_controls + 1))])
            controls2[s] = list(_C2[: int(rng.integers(1, cfg.max_controls + 1))])

    P, C = [], []
    terminal = np.eye(n + 1)[0]
    for si, s in enumerate(states):
        for ui in range(len(controls1[s])):
            for _ in controls2[s]:
                p = _random_dist(rng, n + 1)
                if cfg.family == "loopy":
                    if ui == 0:
                        floor = max(kappa, 0.2)
                        p = floor * terminal + (1.0 - floor) * p
                    elif rng.random() < 0.5 and n >= 1:
                        p[0] = 0.0  # pure in-game row
                        if not p.any():
                            p[si + 1] = 1.0
                        p = p / p.sum()
                else:
                    p = kappa * terminal + (1.0 - kappa) * p
                P.append(p)
                C.append(np.zeros(n + 1))
                C[-1][p > 0.0] = rng.uniform(lo, hi, np.count_nonzero(p))  # one draw per triplet
    return GameModel._from_arrays(states, controls1, controls2, np.array(P), np.array(C))
