"""Calibrated random generators for the simulation studies.

Weibull event times with proportional-hazards treatment effects, exponential
dropout censoring, optional day-precision rounding, binary + continuous
composite outcomes, and the screening-trial mixture (disease-status-dependent
binary rate and continuous shift).

All generators are pure functions of an explicit numpy Generator; use
`substream` to derive independent, reproducible streams per
(scenario, iteration, arm) from one master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import Arm
from .errors import InvalidInputError, _check_count, _check_real


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (master seed, integer key path) pair."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class WeibullParams:
    scale: float  # time units
    shape: float

    def __post_init__(self) -> None:
        _check_real("scale", self.scale, 0.0)
        _check_real("shape", self.shape, 0.0)


def weibull_survival(t: float, params: WeibullParams) -> float:
    """S(t) = exp(-(t / scale)^shape)."""
    return math.exp(-((t / params.scale) ** params.shape))


def exponential_survival(t: float, scale: float) -> float:
    """S(t) = exp(-t / scale)."""
    return math.exp(-t / scale)


def weibull_scale_from_survival(t: float, survival: float, shape: float) -> float:
    """Scale such that the Weibull survival at time t equals `survival`."""
    _check_real("t", t, 0.0)
    _check_real("shape", shape, 0.0)
    _check_real("survival", survival, 0.0, 1.0)
    return t / (-math.log(survival)) ** (1.0 / shape)


def exponential_scale_from_dropout(t: float, p_drop: float) -> float:
    """Exponential scale giving dropout probability p_drop by time t."""
    _check_real("t", t, 0.0)
    _check_real("p_drop", p_drop, 0.0, 1.0)
    return t / (-math.log(1.0 - p_drop))


@dataclass(frozen=True)
class TtePlan:
    """One time-to-event outcome: event model, treatment effect, censoring."""

    event: WeibullParams
    hazard_ratio: float
    censoring_scale: float
    follow_up: float
    round_to_days: bool = False

    def __post_init__(self) -> None:
        for name in ("hazard_ratio", "censoring_scale", "follow_up"):
            _check_real(name, getattr(self, name), 0.0)


def event_params_for_arm(plan: TtePlan, arm: Arm) -> WeibullParams:
    """Arm-specific Weibull model: hazard multiplied by the HR on treatment.

    Multiplying a Weibull hazard by r rescales the scale by r^(-1/shape)
    with the shape unchanged, so S_T(t) = S_C(t)^r.
    """
    if arm is Arm.CONTROL:
        return plan.event
    scale = plan.event.scale * plan.hazard_ratio ** (-1.0 / plan.event.shape)
    return WeibullParams(scale=scale, shape=plan.event.shape)


def _raw_event_times(params: WeibullParams, n: int, rng: np.random.Generator) -> np.ndarray:
    return params.scale * rng.weibull(params.shape, size=n)


def _censor_times(plan: TtePlan, n: int, rng: np.random.Generator) -> np.ndarray:
    return np.minimum(rng.exponential(plan.censoring_scale, size=n), plan.follow_up)


def _observe(event_times: np.ndarray, censor_times: np.ndarray,
             round_to_days: bool) -> tuple[np.ndarray, np.ndarray]:
    times = np.minimum(event_times, censor_times)
    events = event_times <= censor_times
    if round_to_days:
        times = np.ceil(times)  # day precision; rounding up makes day-0 events impossible
    return times, events


def gen_tte_arm(plan: TtePlan, arm: Arm, n: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """Observed (time, event) pairs for one arm under one event outcome."""
    _check_count("n", n)
    event_times = _raw_event_times(event_params_for_arm(plan, arm), n, rng)
    return _observe(event_times, _censor_times(plan, n, rng), plan.round_to_days)


def gen_tte_composite_arm(plans: Sequence[TtePlan], arm: Arm, n: int,
                          rng: np.random.Generator
                          ) -> tuple[list[tuple[np.ndarray, np.ndarray]],
                                     tuple[np.ndarray, np.ndarray]]:
    """Composite endpoint: per-level (time, event) plus the time to first event.

    Dropout is a patient-level process, so a single censoring time is drawn
    per patient (from the first plan) and shared by every level and by the
    first-event outcome.
    """
    _check_count("n", n)
    if not plans:
        raise InvalidInputError("at least one outcome plan required")
    first = plans[0]
    for p in plans[1:]:
        if (p.censoring_scale, p.follow_up, p.round_to_days) != \
                (first.censoring_scale, first.follow_up, first.round_to_days):
            raise InvalidInputError("composite levels must share censoring and rounding")
    raw = [_raw_event_times(event_params_for_arm(p, arm), n, rng) for p in plans]
    censor = _censor_times(first, n, rng)
    levels = [_observe(ev, censor, first.round_to_days) for ev in raw]
    ttfe = _observe(np.minimum.reduce(raw), censor, first.round_to_days)
    return levels, ttfe


def gen_binary_continuous_arm(p: float, delta: float, sd: float, n: int,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli(p) binary outcome and Normal(delta * sd, sd) continuous outcome.

    Higher values are favorable for both; pass delta = 0 for the control arm.
    The two outcomes are independent.
    """
    _check_real("p", p, 0.0, 1.0, "[]")
    _check_real("delta", delta)
    _check_real("sd", sd, 0.0)
    _check_count("n", n)
    binary = (rng.random(n) < p).astype(np.float64)
    continuous = rng.normal(delta * sd, sd, size=n)
    return binary, continuous


def _iphak_default_ebp_rate() -> Mapping[tuple[Arm, bool], float]:
    return {(Arm.TREATMENT, True): 0.68, (Arm.CONTROL, True): 0.85,
            (Arm.TREATMENT, False): 0.81, (Arm.CONTROL, False): 0.81}


def _iphak_default_ddd_mean() -> Mapping[tuple[Arm, bool], float]:
    return {(Arm.TREATMENT, True): -1.364, (Arm.CONTROL, True): 0.0,
            (Arm.TREATMENT, False): 0.0, (Arm.CONTROL, False): 0.0}


@dataclass(frozen=True)
class IphakPlan:
    """Screening-trial mixture: outcomes depend on latent disease status.

    Keys of the rate/mean maps are (arm, diseased). The continuous change
    score is simulated directly at the per-timepoint SD: with correlation
    0.5 between baseline and follow-up, SD(change) = sd * sqrt(2 - 2 * 0.5) = sd.
    The drop-out allowance is applied before simulation via n_per_arm.
    """

    prevalence: float = 0.30
    ebp_rate: Mapping[tuple[Arm, bool], float] = field(default_factory=_iphak_default_ebp_rate)
    ddd_mean: Mapping[tuple[Arm, bool], float] = field(default_factory=_iphak_default_ddd_mean)
    ddd_sd: float = 1.8
    n_per_arm: int = 255

    def __post_init__(self) -> None:
        _check_real("prevalence", self.prevalence, 0.0, 1.0, "[]")
        for key, rate in self.ebp_rate.items():
            _check_real(f"ebp_rate{key}", rate, 0.0, 1.0, "[]")
        for key, mean in self.ddd_mean.items():
            _check_real(f"ddd_mean{key}", mean)
        _check_real("ddd_sd", self.ddd_sd, 0.0)
        _check_count("n_per_arm", self.n_per_arm)


def gen_iphak_arm(plan: IphakPlan, arm: Arm, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(binary classification, continuous change) for one arm; lower favorable.

    Binary and continuous outcomes are independent given disease status.
    """
    n = plan.n_per_arm
    diseased = rng.random(n) < plan.prevalence
    rate = np.where(diseased, plan.ebp_rate[(arm, True)], plan.ebp_rate[(arm, False)])
    ebp = (rng.random(n) < rate).astype(np.float64)
    mean = np.where(diseased, plan.ddd_mean[(arm, True)], plan.ddd_mean[(arm, False)])
    ddd = rng.normal(mean, plan.ddd_sd)
    return ebp, ddd
