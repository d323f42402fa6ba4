"""Fitting and classifying observed prize tables.

Given position -> prize data from real events, estimate the parameters of
the candidate allocation shapes (geometric decay, fixed proportional
shares, flat-top/flat-tail interval pattern) and report a fit verdict at a
relative tolerance.  A classification ties the verdicts into a single tier.

Fitting a shape to a finite table establishes necessity, not proof: the
reports describe how well the data matches the shape, nothing more.  The
rule-against-data check ``check_data_top_consistency`` is re-exported from
``prizealloc.axioms``, which holds its fault and witness rebuild.
"""

from __future__ import annotations

import math

from .core import EventSet, PrizeAllocError, PrizeTable, Record
from .axioms import _excess, check_data_top_consistency, check_tolerance

# Default fit tolerance: 1% relative, loose enough to absorb the rounding
# noise in published prize lists.
TAU_FIT = 0.01

# The shape families ``fit_family`` fits, in the order ``classify`` reports them.
FIT_FAMILIES = ("geometric", "proportional", "interval")


class TooFewPositions(PrizeAllocError):
    pass


class FitReport(Record):
    """Outcome of fitting one shape family to observed prizes.

    ``max_rel_dev`` is the worst relative deviation between observed and
    reconstructed prizes; ``verdict`` is True iff it is within the
    tolerance the fit was run at (after any absolute rounding slack).
    """

    family: str
    parameters: dict[str, object]
    max_rel_dev: float
    verdict: bool
    tolerance: float
    warnings: tuple[str, ...] = ()


class Classification(Record):
    order_preserved: bool
    geometric: FitReport
    proportional: FitReport
    interval_pattern: FitReport
    scale_invariant_across_events: FitReport | None
    tier: str  # consistent-shape | locally-consistent | top-consistent | unordered


def _check_fit_args(tau_fit: float, abs_slack: float) -> None:
    check_tolerance(tau_fit)
    check_tolerance(abs_slack, "slack")


def fit_geometric(
    table: PrizeTable, tau_fit: float = TAU_FIT, abs_slack: float = 0.0
) -> FitReport:
    """Estimate a constant decay ratio: prize(r+1) ~= lam * prize(r).

    lam-hat is the geometric mean of the consecutive ratios over the
    strictly positive prefix.  A trailing block of zeros is compatible with
    the shape only when it starts at position 2 (all-to-the-winner, lam=0);
    a later zero block is a shape violation, since lam^k > 0 for lam > 0.
    """
    _check_fit_args(tau_fit, abs_slack)
    prizes = table.prizes
    if len(prizes) < 2:
        raise TooFewPositions("need at least two positions to fit a decay ratio")
    warnings = []
    if any(prizes[k] < prizes[k + 1] for k in range(len(prizes) - 1)):
        warnings.append("prizes are not non-increasing")

    first_zero = next((k for k, p in enumerate(prizes) if p == 0), len(prizes))
    if any(p != 0 for p in prizes[first_zero:]):  # no decay ratio reproduces it
        no_fit = "zero prize above a positive prize"
    elif 1 < first_zero < len(prizes):  # a positive prefix, zeros from position 3 on
        no_fit = "trailing zeros after position 2"
    else:
        no_fit = None
    if no_fit:
        return FitReport(
            family="geometric", parameters={"lam": math.nan},
            max_rel_dev=math.inf, verdict=False, tolerance=tau_fit,
            warnings=(*warnings, no_fit),
        )
    ratios = [prizes[k + 1] / prizes[k] for k in range(first_zero - 1)]
    lam = 0.0  # the winner takes all (or, never with E > 0, nobody is paid)
    if ratios and all(ratios):
        lam = math.exp(math.fsum(map(math.log, ratios)) / len(ratios))

    # deviation of each consecutive prize from lam times its predecessor,
    # measured relative to the predecessor (the larger of the two)
    max_dev = 0.0
    for k in range(len(prizes) - 1):
        if prizes[k] == 0:
            continue
        gap = max(0.0, abs(prizes[k + 1] - lam * prizes[k]) - abs_slack)
        max_dev = max(max_dev, gap / prizes[k])
    return FitReport(
        family="geometric", parameters={"lam": lam}, max_rel_dev=max_dev,
        verdict=max_dev <= tau_fit, tolerance=tau_fit, warnings=tuple(warnings),
    )


def fit_proportional(
    events: EventSet, tau_fit: float = TAU_FIT, abs_slack: float = 0.0
) -> FitReport:
    """Estimate fixed per-position shares of the endowment, in percent.

    The share vector averages prize/endowment per position across events.
    The verdict is true iff the shares are non-increasing and every event's
    prizes are reproduced from the shares within the tolerance.
    """
    _check_fit_args(tau_fit, abs_slack)
    if events.positions < 1:
        raise TooFewPositions("need at least one position")
    shares = [
        math.fsum(ev.prizes[k] / ev.endowment for ev in events.events) / len(events.events)
        for k in range(events.positions)
    ]
    warnings = []
    ordered = all(a >= b for a, b in zip(shares, shares[1:]))
    if not ordered:
        warnings.append("averaged shares are not non-increasing")
    max_dev = max(
        _excess(p, share * ev.endowment, abs_slack)
        for ev in events.events for p, share in zip(ev.prizes, shares)
    )
    return FitReport(
        family="proportional",
        parameters={"shares_percent": tuple(100.0 * s for s in shares)},
        max_rel_dev=max_dev,
        verdict=ordered and max_dev <= tau_fit,
        tolerance=tau_fit,
        warnings=tuple(warnings),
    )


def detect_interval_pattern(
    table: PrizeTable, tau_fit: float = TAU_FIT, abs_slack: float = 0.0
) -> FitReport:
    """Search for the flat-top/flat-tail shape (b, ..., b, x, a, ..., a).

    Every split position r is tried: positions before r must share a common
    high value b, positions after r a common low value a, and the
    transitional prize x must satisfy a <= x <= b.  All-equal tables match
    trivially with a = b.
    """
    _check_fit_args(tau_fit, abs_slack)
    prizes = table.prizes
    if len(prizes) < 2:
        raise TooFewPositions("need at least two positions to detect the pattern")
    best: FitReport | None = None
    for r in range(1, len(prizes) + 1):
        prefix = prizes[: r - 1]
        suffix = prizes[r:]
        x = prizes[r - 1]
        b = math.fsum(prefix) / len(prefix) if prefix else x
        a = math.fsum(suffix) / len(suffix) if suffix else x
        dev = 0.0
        for p in prefix:
            dev = max(dev, _excess(p, b, abs_slack))
        for p in suffix:
            dev = max(dev, _excess(p, a, abs_slack))
        slack = tau_fit * max(abs(a), abs(b), abs(x)) + abs_slack
        if not (a - slack <= x <= b + slack) or a > b + slack:
            continue
        report = FitReport(
            family="interval",
            parameters={"a": a, "b": b, "split": r},
            max_rel_dev=dev, verdict=dev <= tau_fit, tolerance=tau_fit,
        )
        if best is None or dev < best.max_rel_dev:
            best = report
    if best is None:
        return FitReport(
            family="interval", parameters={}, max_rel_dev=math.inf,
            verdict=False, tolerance=tau_fit,
            warnings=("no split position admits the flat-top/flat-tail shape",),
        )
    return best


def _cross_event_scale(proportional: FitReport) -> FitReport:
    """Do per-position shares of the endowment agree across events?  The
    proportional fit's shares and deviation, without its ordering condition."""
    return proportional.replace(family="cross_event_scale", warnings=(),
                                verdict=proportional.max_rel_dev <= proportional.tolerance)


def classify(
    events: EventSet, tau_fit: float = TAU_FIT, abs_slack: float = 0.0
) -> Classification:
    """Run the shape fits and assign a tier.

    Tier decision, first match wins: every event shows the interval pattern
    -> consistent-shape; geometric fit holds for every event ->
    locally-consistent; proportional fit holds -> top-consistent; otherwise
    unordered.  Prizes that increase with position force unordered.
    """
    order_preserved = all(
        all(ev.prizes[k] >= ev.prizes[k + 1] for k in range(len(ev.prizes) - 1))
        for ev in events.events
    )
    geometric, proportional, interval = (
        fit_family(events, family, tau_fit, abs_slack) for family in FIT_FAMILIES)
    scale = _cross_event_scale(proportional) if len(events.events) > 1 else None
    if not order_preserved:
        tier = "unordered"
    elif interval.verdict:
        tier = "consistent-shape"
    elif geometric.verdict:
        tier = "locally-consistent"
    elif proportional.verdict:
        tier = "top-consistent"
    else:
        tier = "unordered"
    return Classification(
        order_preserved=order_preserved,
        geometric=geometric,
        proportional=proportional,
        interval_pattern=interval,
        scale_invariant_across_events=scale,
        tier=tier,
    )


def fit_family(
    events: EventSet, family: str, tau_fit: float = TAU_FIT, abs_slack: float = 0.0
) -> FitReport:
    """Fit one of FIT_FAMILIES to the event set.  A per-event fit reports its
    worst event, and its verdict holds only if it holds for every event."""
    if family == "proportional":
        return fit_proportional(events, tau_fit, abs_slack)
    if family not in FIT_FAMILIES:
        raise PrizeAllocError(f"unknown fit family {family!r}; expected one of {FIT_FAMILIES}")
    fit = fit_geometric if family == "geometric" else detect_interval_pattern
    reports = [fit(ev, tau_fit, abs_slack) for ev in events.events]
    worst = max(reports, key=lambda r: r.max_rel_dev)
    return worst.replace(verdict=all(r.verdict for r in reports))

