"""Seeded synthetic inputs and the three workload definitions.

The real CCPP and California Housing files are not in the repository and
need a network download, so each workload generates data of the same shape
from its seed. Every generator adds Gaussian noise of a known standard
deviation to an otherwise deterministic response, so the correctness checks
can bound test RMSE from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CCPP_NOISE = 3.2          # MW, noise on the power output
HOUSING_NOISE = 0.25      # noise on log(median house value)
HOUSING_ANOMALY_SHARE = 0.02


@dataclass(frozen=True)
class Table:
    """A generated data set: feature matrix, response and its noise level."""

    features: np.ndarray
    response: np.ndarray      # raw response as written to the CSV
    feature_names: tuple[str, ...]
    target_name: str
    noise_sd: float           # sd of the added noise, in model (transformed) units
    log_target: bool


def _streams(seed: int, tag: str) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent generators for the training file and the scoring file."""
    root = np.random.SeedSequence([seed, sum(map(ord, tag))])
    data_ss, score_ss = root.spawn(2)
    return np.random.default_rng(data_ss), np.random.default_rng(score_ss)


def ccpp_rows(rng: np.random.Generator, n: int) -> Table:
    """CCPP-shaped rows: ambient temperature, exhaust vacuum, pressure, humidity.

    Power output falls linearly with temperature (the dominant effect, as in
    the real plant data), plus smooth nonlinear terms in the other three
    readings that one global linear fit cannot follow. A 3 MW step at each
    quarter of the temperature range (as between operating regimes) pins
    the leaf_size=1000 tree to four leaves of near-equal size on every seed,
    so the cubic GP cost and peak memory do not jump with the seed.
    """
    at = rng.uniform(1.8, 37.1, n)
    v = np.clip(25.0 + 1.15 * at + rng.normal(0.0, 6.0, n), 25.4, 81.6)
    ap = 1013.3 - 0.2 * (at - 19.6) + rng.normal(0.0, 5.5, n)
    rh = np.clip(95.0 - 1.0 * at + rng.normal(0.0, 12.0, n), 25.6, 100.0)
    regime = np.floor((at - 1.8) / (35.3 / 4.0))
    signal = (497.0 - 1.85 * at - 3.0 * regime - 0.2 * v
              + 5.0 * np.sin((v - 1.15 * at) / 3.0)
              + 3.0 * np.cos((ap - 1013.3) / 4.0)
              + 2.5 * np.tanh((rh + at - 95.0) / 8.0))
    pe = signal + rng.normal(0.0, CCPP_NOISE, n)
    return Table(np.column_stack([at, v, ap, rh]), pe, ("at", "v", "ap", "rh"), "pe",
                 CCPP_NOISE, log_target=False)


_CITIES = np.array([  # latitude, longitude, share of rows
    [34.05, -118.25, 0.38],
    [37.77, -122.42, 0.24],
    [32.72, -117.16, 0.10],
    [38.58, -121.49, 0.08],
    [36.74, -119.78, 0.08],
])


def housing_rows(rng: np.random.Generator, n: int) -> Table:
    """California-Housing-shaped rows: 8 numeric block-group features.

    The log house value depends on income (log-linear), location (a coastal
    premium and city clusters), age and occupancy. A small share of rows are
    feature-space anomalies (large rooms, occupancy and population together),
    for the isolation forest to remove. They stay within a few times the
    normal range, so linear leaves do not extrapolate far on them.
    Their response follows the same rule and the same noise.
    """
    weights = _CITIES[:, 2] / _CITIES[:, 2].sum()
    city = rng.choice(len(_CITIES), size=n, p=weights)
    rural = rng.random(n) < 0.15
    lat = np.where(rural, rng.uniform(32.5, 42.0, n), _CITIES[city, 0] + rng.normal(0, 0.35, n))
    lon = np.where(rural, rng.uniform(-124.3, -114.3, n), _CITIES[city, 1] + rng.normal(0, 0.35, n))
    lat = np.round(lat, 2)
    lon = np.round(lon, 2)
    med_inc = np.clip(rng.lognormal(1.25, 0.45, n), 0.5, 15.0)
    house_age = rng.integers(1, 53, n).astype(np.float64)
    ave_rooms = np.clip(4.2 + 0.35 * med_inc + rng.normal(0, 0.8, n), 1.0, None)
    ave_bedrms = np.clip(0.19 * ave_rooms + rng.normal(0, 0.08, n), 0.4, None)
    population = np.round(rng.lognormal(7.0, 0.7, n))
    ave_occup = np.clip(rng.lognormal(1.0, 0.25, n), 0.7, None)

    anomalous = rng.random(n) < HOUSING_ANOMALY_SHARE
    k = int(anomalous.sum())
    ave_rooms[anomalous] = rng.uniform(9.0, 16.0, k)
    ave_bedrms[anomalous] = rng.uniform(1.8, 3.5, k)
    ave_occup[anomalous] = rng.uniform(5.0, 9.0, k)
    population[anomalous] = np.round(rng.uniform(5000.0, 12000.0, k))

    coast = np.exp(-np.maximum(lon + 0.75 * (lat - 34.0) + 118.0 + 4.0 * (lat > 35.5), 0.0))
    city_d = np.min(np.hypot(lat[:, None] - _CITIES[None, :, 0],
                             lon[:, None] - _CITIES[None, :, 1]), axis=1)
    signal = (10.6 + 0.55 * np.log(med_inc) + 0.9 * coast
              + 0.6 * np.exp(-city_d / 0.6)
              + 0.004 * house_age
              - 0.12 * np.log(np.minimum(ave_occup, 8.0))
              + 0.06 * np.sin(ave_rooms))
    log_value = signal + rng.normal(0.0, HOUSING_NOISE, n)
    names = ("med_inc", "house_age", "ave_rooms", "ave_bedrms",
             "population", "ave_occup", "latitude", "longitude")
    features = np.column_stack([med_inc, house_age, ave_rooms, ave_bedrms,
                                population, ave_occup, lat, lon])
    return Table(features, np.exp(log_value), names, "med_house_value",
                 HOUSING_NOISE, log_target=True)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generator, sizes and the fit settings it uses."""

    name: str
    rows: object               # callable(rng, n) -> Table
    n_rows: int                # training file rows
    n_score: int               # rows in the scoring file
    leaf_size: int
    leaf_method: str
    gp_max_iters: int
    outliers: bool
    contamination: float
    # After `treeseg fit`, a round runs `score_reps` `treeseg predict` calls,
    # `batch_reps` predict_batch calls and `sweep_reps` `treeseg sweep` calls,
    # interleaved, with `one_rows` single-row predicts before each of them.
    # Interleaving spreads every metric's samples over the round: on a
    # shared machine the same call runs up to 1.9x slower for seconds at a
    # time, and such a stretch should not land on one metric alone.
    score_reps: int
    batch_reps: int
    sweep_reps: int
    one_rows: int

    def schedule(self) -> list[str]:
        """The post-fit operations of a round, each kind spread evenly."""
        slots = sorted(((k + 0.5) / n, kind)
                       for kind, n in (("score", self.score_reps), ("batch", self.batch_reps),
                                       ("sweep", self.sweep_reps))
                       for k in range(n))
        return [kind for _, kind in slots]

    def make(self, seed: int) -> tuple[Table, Table]:
        """The training table and the scoring table for a seed."""
        data_rng, score_rng = _streams(seed, self.name.split("-")[0])
        return self.rows(data_rng, self.n_rows), self.rows(score_rng, self.n_score)

    def fit_config(self, seed: int, data_path: str, table: Table) -> dict:
        """The run-config document `treeseg fit` and `treeseg sweep` read."""
        columns = [{"name": c} for c in table.feature_names]
        columns.append({"name": table.target_name, "kind": "target",
                        "transform": "log" if table.log_target else "none"})
        return {
            "data": {"path": data_path, "tag": self.name, "columns": columns},
            "split": {"train_fraction": TRAIN_FRACTION, "seed": seed},
            "fit": {
                "leaf_size": self.leaf_size,
                "leaf_method": self.leaf_method,
                "seed": seed,
                "gp_max_iters": self.gp_max_iters,
                "outlier": {"enabled": self.outliers,
                            "contamination": self.contamination},
            },
        }


TRAIN_FRACTION = 0.7

# gp_max_iters caps L-BFGS iterations per leaf. Uncapped, one fit on
# ccpp-gp takes over a minute on a 2-CPU machine; a cap of 2 keeps the whole
# run under a minute and still runs the optimizer and every LML evaluation
# path. ccpp-gp-small keeps the default of 100, which no leaf reaches.
# Rounds are kept short so that a 30 s run holds several of them (3 on
# ccpp-gp-small, 7-8 on housing-linear) and each timing has samples from
# the whole run; a ccpp-gp round (about 38 s) is one run. ccpp-gp-small
# makes 4 sweeps a round, so that its sweep figure, the upper decile of 12
# (run.upper_decile), is not the one slowest sweep of the run.
# Both ccpp workloads draw the same data for a seed (the stream tag is the
# part of the name before the first dash).
WORKLOADS = {
    w.name: w for w in [
        Workload("ccpp-gp", ccpp_rows, n_rows=9568, n_score=3000, leaf_size=1000,
                 leaf_method="gp", gp_max_iters=2, outliers=False, contamination=0.05,
                 score_reps=4, batch_reps=6, sweep_reps=6, one_rows=100),
        Workload("ccpp-gp-small", ccpp_rows, n_rows=9568, n_score=3000, leaf_size=200,
                 leaf_method="gp", gp_max_iters=100, outliers=False, contamination=0.05,
                 score_reps=4, batch_reps=8, sweep_reps=4, one_rows=80),
        Workload("housing-linear", housing_rows, n_rows=20640, n_score=6000, leaf_size=70,
                 leaf_method="linear", gp_max_iters=100, outliers=True, contamination=0.05,
                 score_reps=4, batch_reps=8, sweep_reps=1, one_rows=40),
    ]
}
