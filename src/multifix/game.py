"""Position-correction game: players share a position space, a correction
operator rewrites the joint selection each round, and a selection is optimal
once the correction leaves it fixed."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .operators import (
    LambdaFamily,
    MultiOperator,
    apply_lambda_f,
    bind_lambda_f,
    check_lambda_arity,
)
from .orders import OrderRelation
from .product import sum_distance
from .spaces import DistanceSpace

Point = Any


@dataclass
class GameConfig:
    space: DistanceSpace
    F: MultiOperator
    family: LambdaFamily
    order: Optional[OrderRelation] = None
    rounds: int = 100
    tol: float = 1e-9

    def __post_init__(self):
        if self.F.m != self.family.m:
            raise ValueError("operator and index family arities differ")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")

    @property
    def players(self) -> int:
        return self.family.m


@dataclass
class Round:
    selection: tuple
    nonconvenience: tuple  # per-player d(x_i, y_i) toward the corrected tuple


@dataclass
class Trajectory:
    rounds: list[Round] = field(default_factory=list)
    terminated_optimal: bool = False

    @property
    def final_selection(self) -> tuple:
        return self.rounds[-1].selection


def step(game: GameConfig, x: Sequence[Point]) -> tuple[tuple, tuple]:
    """One correction round: the next selection and each player's
    non-convenience d(x_i, next_i)."""
    x = tuple(x)
    nxt = apply_lambda_f(game.F, game.family, x)
    return nxt, tuple(map(game.space.dist, x, nxt))


def is_optimal_selection(game: GameConfig, x: Sequence[Point], tol: float) -> bool:
    """A selection is optimal when the correction leaves it fixed (within tol,
    measured in the sum product distance)."""
    x = tuple(x)
    image = apply_lambda_f(game.F, game.family, x)
    return sum_distance(game.space, x, image) <= tol


def simulate(game: GameConfig, start: Sequence[Point]) -> Trajectory:
    """Iterate corrections from ``start`` until the selection is optimal or
    the round cap is hit; every visited selection is recorded."""
    x = tuple(start)
    for c in x:
        game.space.require(c)
    check_lambda_arity(game.F, game.family, x)
    lam = bind_lambda_f(game.F, game.family)
    dist = game.space.dist
    traj = Trajectory()
    for _ in range(game.rounds):
        nxt = lam(x)
        nonconv = tuple(map(dist, x, nxt))  # as in step(), bound once
        traj.rounds.append(Round(x, nonconv))
        if sum(nonconv) <= game.tol:
            traj.terminated_optimal = True
            return traj
        x = nxt
    return traj


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Persist one row per (round, player): position and non-convenience."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "player", "position", "nonconvenience"])
        writer.writerows(
            (r, i, pos, nc)
            for r, rec in enumerate(traj.rounds, start=1)
            for i, (pos, nc) in enumerate(zip(rec.selection, rec.nonconvenience), 1)
        )
