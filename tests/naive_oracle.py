"""Naive reference implementations, written independently of the package and
used only in tests: a double-loop win/loss/tie comparator over per-patient
dicts, a pooled net-score z and weighted cross counts built on it, and a
full-enumeration two-sided Fisher exact p-value."""

from math import comb, sqrt


def compare_one_level(t_value, c_value, kind, direction, margin):
    """'win'/'loss'/'tie' for the treatment patient at a single level."""
    if kind == "time-to-event":
        t_time, t_event = t_value
        c_time, c_event = c_value
        if direction == "higher-favorable":
            # Later or absent event favorable; only decidable while both observed.
            if c_event and t_time > c_time + margin:
                return "win"
            if t_event and c_time > t_time + margin:
                return "loss"
            return "tie"
        else:
            if t_event and c_time > t_time + margin:
                return "win"
            if c_event and t_time > c_time + margin:
                return "loss"
            return "tie"
    if direction == "higher-favorable":
        d = t_value - c_value
    else:
        d = c_value - t_value
    if d > margin:
        return "win"
    if d < -margin:
        return "loss"
    return "tie"


def compare_hierarchically(t_patient, c_patient, levels):
    """Verdict and deciding level (None for an overall tie)."""
    for idx, level in enumerate(levels):
        outcome = compare_one_level(t_patient[level["name"]], c_patient[level["name"]],
                                    level["kind"], level["direction"], level["margin"])
        if outcome != "tie":
            return outcome, idx
    return "tie", None


def naive_tally(t_patients, c_patients, levels):
    """All-pairs tally: dict with wins/losses/ties/pairs and per-level counts.

    Patients are dicts mapping level name -> value ((time, event) tuples for
    time-to-event levels). Levels are dicts with name/kind/direction/margin.
    """
    wins = losses = ties = 0
    by_level = {}
    for t_patient in t_patients:
        for c_patient in c_patients:
            outcome, idx = compare_hierarchically(t_patient, c_patient, levels)
            if outcome == "win":
                wins += 1
                by_level[idx] = by_level.get(idx, 0) + 1
            elif outcome == "loss":
                losses += 1
                by_level[idx] = by_level.get(idx, 0) + 1
            else:
                ties += 1
    return {"wins": wins, "losses": losses, "ties": ties,
            "pairs": len(t_patients) * len(c_patients), "by_level": by_level}


def naive_net_scores(t_patients, c_patients, levels):
    """Pooled net scores, treatment patients first.

    Each patient's score u_i is +1 per patient of either arm it beats and -1
    per patient that beats it.
    """
    sign = {"win": 1, "loss": -1, "tie": 0}
    pooled = list(t_patients) + list(c_patients)
    return [sum(sign[compare_hierarchically(p, q, levels)[0]]
                for j, q in enumerate(pooled) if j != i)
            for i, p in enumerate(pooled)]


def naive_score_z(t_patients, c_patients, levels):
    """Pooled net-score z, or None when every net score is zero.

    The statistic is the treatment-arm sum of `naive_net_scores`, with the
    arm-relabeling variance n_t n_c sum(u^2) / (N (N - 1)).
    """
    u = naive_net_scores(t_patients, c_patients, levels)
    n_t, n_c = len(t_patients), len(c_patients)
    n = n_t + n_c
    sum_sq = sum(x * x for x in u)
    if sum_sq == 0:
        return None
    return sum(u[:n_t]) / sqrt(n_t * n_c * sum_sq / (n * (n - 1)))


def naive_against(t_patients, c_patients, levels, w):
    """Weighted cross counts: for each weight row r over the controls, the weighted
    number of controls each treatment patient beats and the weighted number it loses
    to, as two lists of rows (one entry per treatment patient)."""
    verdicts = [[compare_hierarchically(t, c, levels)[0] for c in c_patients]
                for t in t_patients]
    return tuple([[sum(int(wr[j]) for j, v in enumerate(row) if v == want) for row in verdicts]
                  for wr in w] for want in ("win", "loss"))


def enumerate_fisher_p(a, b, c, d):
    """Independent full-enumeration two-sided Fisher oracle."""
    n1, k, n = a + b, a + c, a + b + c + d
    if n1 == 0 or c + d == 0 or k == 0 or n - k == 0:
        return 1.0
    lo, hi = max(0, n1 + k - n), min(n1, k)
    pmf = {j: comb(k, j) * comb(n - k, n1 - j) / comb(n, n1) for j in range(lo, hi + 1)}
    p_obs = pmf[a]
    return min(1.0, sum(p for p in pmf.values() if p <= p_obs * (1 + 1e-7)))
