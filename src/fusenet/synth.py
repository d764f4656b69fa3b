"""Synthetic inquiry generator with a planted tabular-by-text interaction.

The 13 classes are wired so that neither single-source model can match a
fused one:

* six classes share ONE activity profile and are told apart only by
  their email text (every pair of them is "signal-shared");
* six other classes share ONE generic template pool and are told apart
  only by their activity signals (every pair is "text-shared");
* "Other" is unique on both sources.

A pairwise confusion would still fit inside a top-3 list, so the
confusable sets are groups of six: a model blind to the disambiguating
source can keep at most three of six candidates in its top-3, which caps
its in-group top-3 recall near 1/2 while a fused model resolves the
group exactly.

The ``noise`` parameter independently reassigns an example's template
pool and/or signal profile to a uniformly random other class with the
given probability. Because the construction is fully enumerable, the
Bayes-optimal top-1/top-3 accuracy of each source is computed exactly
and recorded in the manifest next to the template and profile tables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dataset import CLASS_NAMES, Example
from .numcore import Rng
from .textprep import normalize, tokenize

DEFAULT_NUM_DIM = 20
NOISE_SIGMA = 0.6  # spread of numerical features around their profile mean

TEXT_POOLS: dict[str, list[str]] = {
    "cost_explanation": [
        "can you explain the total cost of my loan and how the fee works",
        "i don't understand the repayment cost breakdown, the fee of {amount} seems high",
        "why was i charged {amount} this month? please explain the cost",
        "what's the fee structure on this loan, it looks expensive to me",
    ],
    "early_payoff": [
        "i'd like to pay off my loan early, is that possible",
        "can i repay the full balance before {date} without a penalty",
        "what happens if i pay everything back ahead of schedule",
        "i want to settle the remaining balance today, how do i do that",
    ],
    "edit_offer": [
        "i already accepted my offer but i'd like to change the amount",
        "can i edit the loan offer i accepted on {date}",
        "i accepted {amount} by mistake, can i modify my application",
        "is it possible to adjust an offer after accepting it",
    ],
    "how_to_enroll": [
        "how do i sign up for a loan, i can't find the button",
        "what are the steps to enroll in the financing program",
        "i'd like to apply for financing, where do i start",
        "can you walk me through the enrollment process",
    ],
    "minimum_repayment": [
        "what is the minimum i have to repay each period",
        "is there a minimum repayment requirement on my plan",
        "do i need to pay at least {amount} every ninety days",
        "what's the smallest payment that keeps my plan in good standing",
    ],
    "no_credit_check": [
        "will you run a credit check if i apply for this loan",
        "does applying affect my credit score or credit report",
        "is my credit report used to decide whether i'm eligible",
        "i'm worried about a hard pull on my credit, do you do one",
    ],
    # Shared by the six classes that only their signals can separate.
    "account_status_generic": [
        "hi, i have a question about my loan, can you help me out",
        "can someone give me an update on my account please",
        "i'm checking in on the status of my application from {date}",
        "please let me know what's going on with my account",
        "any update on my inquiry? you can reach me at {email}",
        "i sent a note on {date} and haven't heard back, call me at {phone}",
    ],
    "other_misc": [
        "my card reader stopped working at the market yesterday",
        "how do i change the receipt name shown to my customers",
        "i can't log in to my dashboard since the latest update",
        "a customer wants a refund on an invoice, unrelated to my loan",
    ],
}

# Profile order fixes each profile's signature dimensions.
PROFILE_IDS = (
    "servicing_active",
    "application_declined",
    "approved_awaiting_funds",
    "active_offer_capacity",
    "renewal_hold",
    "renewal_window_open",
    "plan_paid_off",
    "no_loan_products_only",
)

CLASS_TEXT_POOL: dict[str, str] = {
    "Cost Explanation": "cost_explanation",
    "Decline Follow Up": "account_status_generic",
    "Early Payoff": "early_payoff",
    "Edit Offer if Already Accepted": "edit_offer",
    "Funds ETA": "account_status_generic",
    "How to Enroll": "how_to_enroll",
    "Increase Options": "account_status_generic",
    "Minimum Repayment Requirement": "minimum_repayment",
    "Not Eligible for Renewal": "account_status_generic",
    "Renewal Eligibility": "account_status_generic",
    "No Credit Check": "no_credit_check",
    "Plan Completed": "account_status_generic",
    "Other": "other_misc",
}

CLASS_PROFILE: dict[str, str] = {
    "Cost Explanation": "servicing_active",
    "Decline Follow Up": "application_declined",
    "Early Payoff": "servicing_active",
    "Edit Offer if Already Accepted": "servicing_active",
    "Funds ETA": "approved_awaiting_funds",
    "How to Enroll": "servicing_active",
    "Increase Options": "active_offer_capacity",
    "Minimum Repayment Requirement": "servicing_active",
    "Not Eligible for Renewal": "renewal_hold",
    "Renewal Eligibility": "renewal_window_open",
    "No Credit Check": "servicing_active",
    "Plan Completed": "plan_paid_off",
    "Other": "no_loan_products_only",
}

SIGNAL_SHARED_GROUP = tuple(
    c for c in CLASS_NAMES if CLASS_PROFILE[c] == "servicing_active"
)
TEXT_SHARED_GROUP = tuple(
    c for c in CLASS_NAMES if CLASS_TEXT_POOL[c] == "account_status_generic"
)

# Designated blind-spot pairs for qualitative per-class comparisons: the
# first is separated only by text (tabular-only models are blind), the
# second only by signals (text-only models are blind).
TEXT_DISAMBIGUATED_PAIR = ("How to Enroll", "No Credit Check")
SIGNAL_DISAMBIGUATED_PAIR = ("Decline Follow Up", "Funds ETA")

_MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)

_PRODUCT_MIX = ("pos_only", "pos_and_invoices", "pos_and_payroll", "full_suite")
_TENURE = ("lt_1y", "1_3y", "gt_3y")


def profile_mean(profile_id: str, num_dim: int) -> np.ndarray:
    """Two signature dimensions per profile; the rest stay at zero."""
    p = PROFILE_IDS.index(profile_id)
    mean = np.zeros(num_dim)
    mean[2 * p] = 2.5
    mean[2 * p + 1] = -2.0
    return mean


def _fill_slots(template: str, rng: Rng) -> str:
    out = template
    if "{amount}" in out:
        dollars = int(rng.integers(50, 20000))
        amount = f"${dollars:,}"
        if int(rng.integers(0, 2)):
            amount += f".{int(rng.integers(0, 100)):02d}"
        out = out.replace("{amount}", amount)
    if "{date}" in out:
        date = (
            f"{_MONTH_NAMES[int(rng.integers(0, 12))]} "
            f"{int(rng.integers(1, 29))}, {int(rng.integers(2016, 2025))}"
        )
        out = out.replace("{date}", date)
    if "{email}" in out:
        out = out.replace("{email}", f"seller{int(rng.integers(1, 100000))}@example.com")
    if "{phone}" in out:
        out = out.replace(
            "{phone}",
            f"({int(rng.integers(200, 1000))}) "
            f"{int(rng.integers(200, 1000))}-{int(rng.integers(1000, 10000))}",
        )
    return out


def _class_counts(n: int) -> list[int]:
    base, extra = divmod(n, len(CLASS_NAMES))
    return [base + (1 if i < extra else 0) for i in range(len(CLASS_NAMES))]


def generate_synthetic(n: int, noise: float, seed: int,
                       num_dim: int = DEFAULT_NUM_DIM) -> tuple[list[Example], dict]:
    """Generate n labeled examples plus the manifest describing them."""
    if n < 13 * 10:
        raise ValueError(f"n must be at least 130 (10 per class), got {n}")
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    if num_dim < 2 * len(PROFILE_IDS):
        raise ValueError(f"num_dim must be >= {2 * len(PROFILE_IDS)}, got {num_dim}")

    rng = Rng(seed)
    counts = _class_counts(n)
    means = {p: profile_mean(p, num_dim) for p in PROFILE_IDS}
    other_classes = {
        c: [o for o in CLASS_NAMES if o != c] for c in CLASS_NAMES
    }

    examples: list[Example] = []
    for cls, count in zip(CLASS_NAMES, counts):
        for _ in range(count):
            text_cls = cls
            if noise > 0.0 and rng.random() < noise:
                text_cls = other_classes[cls][int(rng.integers(0, 12))]
            signal_cls = cls
            if noise > 0.0 and rng.random() < noise:
                signal_cls = other_classes[cls][int(rng.integers(0, 12))]

            pool = TEXT_POOLS[CLASS_TEXT_POOL[text_cls]]
            text = _fill_slots(pool[int(rng.integers(0, len(pool)))], rng)

            profile = CLASS_PROFILE[signal_cls]
            numerical = means[profile] + rng.normal(num_dim, scale=NOISE_SIGMA)
            categorical = [
                ("account_state", profile),
                ("product_mix", _PRODUCT_MIX[int(rng.integers(0, len(_PRODUCT_MIX)))]),
                ("tenure_bucket", _TENURE[int(rng.integers(0, len(_TENURE)))]),
            ]
            examples.append(Example(
                id="", text=text, numerical=[float(v) for v in numerical],
                categorical=categorical, label=cls,
            ))

    order = rng.permutation(len(examples))
    examples = [examples[i] for i in order]
    for i, ex in enumerate(examples):
        ex.id = f"synth-{i:06d}"

    manifest = {
        "version": 1,
        "n": n,
        "noise": noise,
        "seed": seed,
        "num_dim": num_dim,
        "noise_sigma": NOISE_SIGMA,
        "classes": list(CLASS_NAMES),
        "class_counts": dict(zip(CLASS_NAMES, counts)),
        "text_pools": {k: list(v) for k, v in TEXT_POOLS.items()},
        "class_text_pool": dict(CLASS_TEXT_POOL),
        "profiles": {
            p: {"numerical_mean": means[p].tolist(), "account_state": p}
            for p in PROFILE_IDS
        },
        "class_profile": dict(CLASS_PROFILE),
        "confusable": {
            "text_shared_groups": [list(TEXT_SHARED_GROUP)],
            "signal_shared_groups": [list(SIGNAL_SHARED_GROUP)],
            "text_disambiguated_pair": list(TEXT_DISAMBIGUATED_PAIR),
            "signal_disambiguated_pair": list(SIGNAL_DISAMBIGUATED_PAIR),
        },
        "ceilings": bayes_ceilings(noise),
    }
    return examples, manifest


def _ceiling(noise: float, *sources: dict[str, str]) -> tuple[float, float]:
    """Bayes-optimal (top1, top3) accuracy when only ``sources`` are seen.

    Each source maps a class to its pool or profile; the observation is
    that identity, since within a pool or profile nothing else depends on
    the class. Flips move each source's observation, independently, to a
    uniformly random other class's assignment with probability ``noise``.
    """
    prior = 1.0 / len(CLASS_NAMES)

    def obs_prob(assign: dict[str, str], c: str, obs: str) -> float:
        own = 1.0 if assign[c] == obs else 0.0
        others = sum(1 for o in CLASS_NAMES if o != c and assign[o] == obs)
        return (1.0 - noise) * own + noise * others / 12.0

    top1 = 0.0
    top3 = 0.0
    for obs in itertools.product(*(sorted(set(src.values())) for src in sources)):
        joint = []
        for c in CLASS_NAMES:
            p = prior
            for src, o in zip(sources, obs):
                p *= obs_prob(src, c, o)
            joint.append(p)
        joint.sort(reverse=True)
        top1 += joint[0]
        top3 += sum(joint[:3])
    return top1, top3


def bayes_ceilings(noise: float) -> dict[str, float]:
    """Exact best-achievable accuracies under the generative construction."""
    text_top1, text_top3 = _ceiling(noise, CLASS_TEXT_POOL)
    sig_top1, sig_top3 = _ceiling(noise, CLASS_PROFILE)
    fused_top1, fused_top3 = _ceiling(noise, CLASS_TEXT_POOL, CLASS_PROFILE)
    return {
        "text_only_top1": text_top1,
        "text_only_top3": text_top3,
        "signals_only_top1": sig_top1,
        "signals_only_top3": sig_top3,
        "fusion_top1": fused_top1,
        "fusion_top3": fused_top3,
        "chance_top3": 3.0 / len(CLASS_NAMES),
    }


def vocabulary() -> list[str]:
    """Every token the generator can emit, after normalization.

    Slot fills normalize to fixed placeholder phrases, so one canonical
    fill per slot covers all random values.
    """
    canonical = {
        "{amount}": "$100",
        "{date}": "January 1, 2020",
        "{email}": "seller@example.com",
        "{phone}": "(200) 555-0100",
    }
    words: set[str] = set()
    for pool in TEXT_POOLS.values():
        for template in pool:
            text = template
            for slot, value in canonical.items():
                text = text.replace(slot, value)
            words.update(tokenize(normalize(text), 10_000).tokens)
    return sorted(words)
