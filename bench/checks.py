"""Output checks for the benchmark, computed apart from wrlab.

Win/loss/tie tallies and the score statistic come from this module's own
pairwise count; the comparator tests come from scipy. The program supplies
only its inputs: the hierarchy specs, the public data-generating models and
their RNG substreams, and `solve_omega`'s root. Results that depend on the
program's own resampling (bootstrap, rank simulation) are checked by
properties the method must have, never against a stored copy of an earlier
output.

Every check raises `CheckError` with a message naming what disagreed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

# Statistical bands are this many standard errors wide. A 5-SE band is
# crossed by chance about once in two million checks, so honest runs never
# trip it, while a broken test (never or always rejecting) lands far outside.
BAND_SE = 5.0
# Absolute allowance between two asymptotically equivalent tests.
METHOD_ALLOWANCE = 0.05


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Level:
    """One hierarchy level as this module reads it."""

    tte: bool
    higher: bool
    margin: float


def levels_of(hierarchy) -> list[Level]:
    """Read a wrlab Hierarchy's specs into plain Level records."""
    return [Level(tte=spec.kind.value == "time-to-event",
                  higher=spec.direction.value == "higher-favorable",
                  margin=float(spec.margin))
            for spec in hierarchy.levels]


def level_signs(level: Level, a, b) -> np.ndarray:
    """+1 where row patient a beats column patient b at this level, -1 where b wins."""
    m = level.margin
    if level.tte:
        (ta, ea), (tb, eb) = a, b
        a_outlasts = ta[:, None] > tb[None, :] + m
        b_outlasts = tb[None, :] > ta[:, None] + m
        if level.higher:
            # A later event is better, and is known only if the earlier one was seen.
            a_better = a_outlasts & eb[None, :]
            b_better = b_outlasts & ea[:, None]
        else:
            a_better = b_outlasts & ea[:, None]
            b_better = a_outlasts & eb[None, :]
    else:
        d = a[:, None] - b[None, :]
        if not level.higher:
            d = -d
        a_better, b_better = d > m, d < -m
    return a_better.astype(np.int8) - b_better.astype(np.int8)


def compare_all(a_cols, b_cols, levels: list[Level]) -> tuple[np.ndarray, np.ndarray]:
    """Verdict (+1/-1/0) and deciding level (-1 for a tie) of every a x b pair."""
    first = a_cols[0][0] if levels[0].tte else a_cols[0]
    other = b_cols[0][0] if levels[0].tte else b_cols[0]
    verdict = np.zeros((len(first), len(other)), dtype=np.int8)
    level = np.full(verdict.shape, -1, dtype=np.int16)
    for k, lev in enumerate(levels):
        s = level_signs(lev, a_cols[k], b_cols[k])
        fresh = (level == -1) & (s != 0)
        verdict[fresh] = s[fresh]
        level[fresh] = k
    return verdict, level


def _rows(cols, levels: list[Level], lo: int, hi: int):
    return [(c[0][lo:hi], c[1][lo:hi]) if lev.tte else c[lo:hi] for c, lev in zip(cols, levels)]


def _pool(t_cols, c_cols, levels: list[Level]):
    return [(np.concatenate([t[0], c[0]]), np.concatenate([t[1], c[1]])) if lev.tte
            else np.concatenate([t, c]) for t, c, lev in zip(t_cols, c_cols, levels)]


def _size(cols, levels: list[Level]) -> int:
    return len(cols[0][0] if levels[0].tte else cols[0])


@dataclass
class Tally:
    wins: int
    losses: int
    ties: int
    decided: list[int]  # decided pairs per level

    @property
    def informative(self) -> int:
        return self.wins + self.losses


def tally(t_cols, c_cols, levels: list[Level], block: int = 512) -> Tally:
    """Cross-arm tally, counted in blocks of treatment rows to bound memory."""
    n_t = _size(t_cols, levels)
    wins = losses = ties = 0
    decided = [0] * len(levels)
    for lo in range(0, n_t, block):
        verdict, level = compare_all(_rows(t_cols, levels, lo, lo + block), c_cols, levels)
        wins += int((verdict == 1).sum())
        losses += int((verdict == -1).sum())
        ties += int((verdict == 0).sum())
        counts = np.bincount(level.ravel() + 1, minlength=len(levels) + 1)
        for k in range(len(levels)):
            decided[k] += int(counts[k + 1])
    return Tally(wins, losses, ties, decided)


def score_z(t_cols, c_cols, levels: list[Level], block: int = 512) -> float:
    """Permutation-variance score statistic from each patient's net beats.

    Every patient is compared with every other patient of the pooled sample;
    the statistic is the treatment arm's total net beats (N_win - N_loss)
    over the square root of its arm-relabelling variance.
    """
    n_t, n_c = _size(t_cols, levels), _size(c_cols, levels)
    pooled = _pool(t_cols, c_cols, levels)
    n = n_t + n_c
    net = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        verdict, _ = compare_all(_rows(pooled, levels, lo, lo + block), pooled, levels)
        net[lo:lo + block] = verdict.sum(axis=1, dtype=np.int64)
    statistic = float(net[:n_t].sum())
    sum_sq = float((net * net).sum())
    require(sum_sq > 0.0, "score test undefined: no net-beat variation")
    return statistic / math.sqrt(n_t * n_c * sum_sq / (n * (n - 1)))


def two_sided_p(z: float) -> float:
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def _wilson_excludes_half(t: Tally, alpha: float) -> bool:
    p, m = t.wins / t.informative, t.informative
    z = float(stats.norm.ppf(1.0 - alpha / 2.0))
    center = (p + z * z / (2 * m)) / (1 + z * z / m)
    half = z / (1 + z * z / m) * math.sqrt(p * (1 - p) / m + z * z / (4 * m * m))
    return center - half > 0.5 or center + half < 0.5


def wr_decision(variant: str, t: Tally, t_cols, c_cols, levels: list[Level],
                alpha: float) -> tuple[bool, bool]:
    """(reject, degenerate) of one unmatched win-ratio test on one dataset.

    Degenerate datasets follow the program's documented convention: with no
    informative pair nothing is rejected; with zero wins or zero losses the
    log-scale Wald tests fall back to the Wilson interval on the win
    proportion.
    """
    if t.informative == 0:
        return False, True
    if variant == "score":
        return two_sided_p(score_z(t_cols, c_cols, levels)) <= alpha, False
    if t.wins == 0 or t.losses == 0:
        return _wilson_excludes_half(t, alpha), True
    log_wr = math.log(t.wins / t.losses)
    phi = t.wins / t.informative
    if variant == "count-wald":
        var = 1.0 / (phi * (1.0 - phi) * t.informative)
    elif variant == "yu":
        n_t, n_c = _size(t_cols, levels), _size(c_cols, levels)
        p_t = n_t / (n_t + n_c)
        p_tie = t.ties / (n_t * n_c)
        sigma_sq = 4.0 * (1.0 + p_tie) / (3.0 * p_t * (1.0 - p_t) * (1.0 - p_tie))
        var = sigma_sq / (n_t + n_c)
    else:
        raise ValueError(f"no independent computation for WR variant {variant!r}")
    return two_sided_p(log_wr / math.sqrt(var)) <= alpha, False


def _table(treatment, control) -> list[list[int]]:
    t, c = np.asarray(treatment), np.asarray(control)
    return [[int((t == 1).sum()), int((t == 0).sum())],
            [int((c == 1).sum()), int((c == 0).sum())]]


@functools.lru_cache(maxsize=None)
def _fisher_p(a: int, b: int, c: int, d: int) -> float:
    # Small arms repeat tables often; each distinct table is computed once.
    return float(stats.fisher_exact([[a, b], [c, d]]).pvalue)


def comparator_p(method: str, datasets: list) -> np.ndarray:
    """p-values of a comparator test on every dataset, computed by scipy."""
    if method == "t-test":
        # One vectorised call over the datasets (equal arm sizes in a cell).
        return stats.ttest_ind(np.array([d.continuous[0] for d in datasets]),
                               np.array([d.continuous[1] for d in datasets]),
                               axis=1, equal_var=False).pvalue
    return np.array([_comparator_p(method, d) for d in datasets])


def _comparator_p(method: str, data) -> float:
    if method == "fisher-exact":
        return _fisher_p(*(n for row in _table(*data.binary) for n in row))
    if method == "chi-square":
        table = _table(*data.binary)
        if 0 in (sum(table[0]), sum(table[1]), table[0][0] + table[1][0],
                 table[0][1] + table[1][1]):
            return 1.0  # a zero margin carries no evidence
        return float(stats.chi2_contingency(table, correction=False).pvalue)
    if method == "log-rank-ttfe":
        s = data.ttfe
        g = np.asarray(s.in_treatment, dtype=bool)
        ev = np.asarray(s.events, dtype=bool)
        x = stats.CensoredData.right_censored(s.times[g], ~ev[g])
        y = stats.CensoredData.right_censored(s.times[~g], ~ev[~g])
        return float(stats.logrank(x, y).pvalue)
    raise ValueError(f"no independent computation for method {method!r}")


@dataclass
class CellExpectation:
    """Independently recomputed outcome of one simulated grid cell."""

    iterations: int
    rejections: dict[str, int] = field(default_factory=dict)
    degenerate: dict[str, int] = field(default_factory=dict)
    decided: list[int] = field(default_factory=list)
    wr_sum: float = 0.0
    wr_count: int = 0


def recompute_cell(scenario, master_seed: int, cell: int, iterations: int,
                   substream) -> CellExpectation:
    """Regenerate every dataset of a cell and decide each method independently.

    `substream` is wrlab's public substream constructor: the datasets are the
    program's inputs, regenerated exactly as the Monte Carlo loop draws them.
    The bootstrap variant is skipped: it depends on the program's resampling.
    """
    levels = levels_of(scenario.dgm.hierarchy())
    methods = [m for m in scenario.methods if m != "wr-unmatched:bootstrap"]
    exp = CellExpectation(iterations=iterations, decided=[0] * len(levels))
    for m in methods:
        exp.rejections[m] = exp.degenerate[m] = 0
    wr_methods = [m for m in methods if m.startswith("wr-unmatched")]
    datasets = [scenario.dgm.generate(substream(master_seed, cell, i, 0),
                                      substream(master_seed, cell, i, 1))
                for i in range(iterations)]
    for data in datasets:
        t = tally(data.t_cols, data.c_cols, levels)
        if wr_methods or "wr-unmatched:bootstrap" in scenario.methods:
            exp.decided = [a + b for a, b in zip(exp.decided, t.decided)]
            if t.informative > 0 and t.losses > 0:
                exp.wr_sum += t.wins / t.losses
                exp.wr_count += 1
        for m in wr_methods:
            variant = m.split(":", 1)[1] if ":" in m else "score"
            reject, degen = wr_decision(variant, t, data.t_cols, data.c_cols,
                                        levels, scenario.alpha)
            exp.degenerate[m] += degen
            exp.rejections[m] += reject
    for m in methods:
        if m not in wr_methods:
            exp.rejections[m] = int((comparator_p(m, datasets) <= scenario.alpha).sum())
    return exp


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_rows(rows: list[dict], iterations: int, label: str) -> None:
    """Checks every result row must pass: power, MCSE and level fractions."""
    for r in rows:
        where = f"{label}: {r['scenario']} {r['method']}"
        require(r["n_iterations"] == iterations,
                f"{where}: n_iterations {r['n_iterations']} != {iterations}")
        p = r["power"]
        k = round(p * iterations)
        require(0 <= k <= iterations and p == k / iterations,
                f"{where}: power {p!r} is not a rejection count over {iterations}")
        require(_close(r["mcse"], math.sqrt(p * (1.0 - p) / iterations), 1e-12)
                or r["mcse"] == 0.0 == p * (1.0 - p),
                f"{where}: mcse {r['mcse']!r} != sqrt(p(1-p)/n)")
        require(isinstance(r.get("n_failures", 0), int) and r.get("n_failures", 0) >= 0,
                f"{where}: bad n_failures {r.get('n_failures')!r}")
        frac = r.get("decided_at_level")
        if frac is not None:
            require(all(0.0 <= f <= 1.0 for f in frac) and abs(sum(frac) - 1.0) <= 1e-9,
                    f"{where}: decided-level fractions {frac} do not sum to 1")


def check_cell(rows: dict[str, dict], exp: CellExpectation, label: str) -> None:
    """Compare one cell's reported rows with the recomputed expectation."""
    n = exp.iterations
    for method, rejections in exp.rejections.items():
        r = rows[method]
        require(r["power"] == rejections / n,
                f"{label} {method}: reported power {r['power']!r}, recomputed "
                f"{rejections}/{n} = {rejections / n!r}")
        if method.startswith("wr-unmatched"):
            require(r["n_degenerate"] == exp.degenerate[method],
                    f"{label} {method}: n_degenerate {r['n_degenerate']} != "
                    f"{exp.degenerate[method]}")
    total = sum(exp.decided)
    for method, r in rows.items():
        if not method.startswith("wr-unmatched") or total == 0:
            continue
        want = [c / total for c in exp.decided]
        got = r["decided_at_level"]
        require(got is not None and len(got) == len(want)
                and all(_close(g, w, 1e-12) or g == w for g, w in zip(got, want)),
                f"{label} {method}: decided-level fractions {got} != {want}")
        if exp.wr_count:
            mean_wr = exp.wr_sum / exp.wr_count
            require(r["mean_wr"] is not None and _close(r["mean_wr"], mean_wr, 1e-9),
                    f"{label} {method}: mean_wr {r['mean_wr']!r} != {mean_wr!r}")


def check_bootstrap_band(boot_power: float, score_power: float, n: int) -> None:
    """Bootstrap and score tests on the same datasets must reach similar power.

    Both are calibrated tests of the same null at this sample size, so their
    powers may differ by the method allowance plus sampling error.
    """
    p = 0.5 * (boot_power + score_power)
    band = METHOD_ALLOWANCE + BAND_SE * math.sqrt(2.0 * p * (1.0 - p) / n)
    require(abs(boot_power - score_power) <= band,
            f"bootstrap power {boot_power:.4f} vs score power {score_power:.4f} "
            f"over {n} datasets: difference beyond {band:.4f}")


def check_null_size(rejections: int, n: int, alpha: float) -> None:
    """Rejections under the null must be a plausible Binomial(n, alpha) draw."""
    tail = float(stats.norm.sf(BAND_SE))
    lo = int(stats.binom.ppf(tail, n, alpha))
    hi = int(stats.binom.isf(tail, n, alpha))
    require(lo <= rejections <= hi,
            f"null rejections {rejections}/{n} outside the binomial band "
            f"[{lo}, {hi}] around alpha={alpha}")


def check_power_near(power: float, n: int, target: float, label: str) -> None:
    """Simulated power within the method allowance plus sampling error of a formula."""
    band = METHOD_ALLOWANCE + BAND_SE * math.sqrt(target * (1.0 - target) / n)
    require(abs(power - target) <= band,
            f"{label}: power {power:.4f} over {n} iterations vs {target:.4f}: "
            f"difference beyond {band:.4f}")


def check_fnch_root(phi: float, n_t: int, n_c: int, omega: float) -> None:
    """At the solved odds, the mean top-half share of treatment ranks is phi.

    The treatment arm draws n_t of the n_t + n_c ranks; the better
    ceil(N/2) ranks carry odds omega (Fisher's noncentral hypergeometric).
    """
    n = n_t + n_c
    top = (n + 1) // 2
    share = float(stats.nchypergeom_fisher(n, top, n_t, omega).mean()) / n_t
    require(abs(share - phi) <= 1e-6,
            f"solve_omega({phi}, {n_t}, {n_c}) = {omega!r}: FNCH mean share "
            f"{share:.9f} != {phi}")
