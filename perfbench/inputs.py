"""Seeded inputs: formula texts and the scripted chat backend.

Every input the program sees is built here from the workload seed.  The
seed changes which variables, constants, term orders and response kinds
appear, but not how much work they cost: a formula's multiset of terms
is a fixed function of its target length, and the scripted backend's
mix of rejects, repeats and fresh formulas has fixed counts.  That keeps
run time steady from seed to seed while the inputs still differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIMENSION = 5

# (template, postfix ops).  Every template is finite on the whole box:
# square roots take absolute values, divisors are at least 1, exponents
# are integers and sinh arguments stay within [-1, 1].
TERMS = (
    ("{c}*x[{i}]**2", 5),
    ("sin(x[{i}])*x[{j}]", 4),
    ("abs(x[{i}] - x[{j}])", 4),
    ("sqrt(abs(x[{i}]*x[{j}]))", 5),
    ("x[{i}]*x[{j}]/(1 + x[{k}]**2)", 9),
    ("cos(x[{i}]*x[{j}])", 4),
    ("sinh(x[{i}])*cos(x[{j}])**2", 7),
    ("tanh(x[{i}] + {c}*x[{j}])", 6),
    ("abs(x[{i}])**3", 4),
    ("x[{i}]*sin(x[{j}] - x[{k}])", 6),
)
PADS = (("x[{i}]**2", 3), ("abs(x[{i}])", 2), ("x[{i}]", 1))
CONSTANTS = ("0.5", "1.5", "2", "2.5", "3")


def _recipe(ops: int, every_variable: bool) -> list[tuple[str, int]]:
    """Fixed multiset of terms whose sum has exactly ``ops`` postfix ops."""
    terms: list[tuple[str, int]] = []
    if every_variable:
        terms += [(f"{{c}}*x[{i}]**2", 5) for i in range(DIMENSION)]
    used = sum(n for _, n in terms) + max(len(terms) - 1, 0)
    k = 0
    while True:
        template, n = TERMS[k % len(TERMS)]
        cost = n + (1 if terms else 0)
        left = ops - used - cost
        if left < 0 or left == 1:
            break
        terms.append((template, n))
        used += cost
        k += 1
    left = ops - used
    for template, n in PADS:
        while left >= n + 1 and left - (n + 1) != 1:
            terms.append((template, n))
            left -= n + 1
    if left:
        raise ValueError(f"cannot reach {ops} ops")
    return terms


def formula(rng: np.random.Generator, ops: int, every_variable: bool = False) -> str:
    """A sum of seeded terms with exactly ``ops`` postfix operations."""
    terms = _recipe(ops, every_variable)
    parts = []
    for index in rng.permutation(len(terms)):
        template = terms[int(index)][0]
        i, j, k = (int(v) for v in rng.choice(DIMENSION, 3, replace=False))
        text = template.format(i=i, j=j, k=k, c=CONSTANTS[int(rng.integers(len(CONSTANTS)))])
        joiner = " - " if parts and rng.random() < 0.3 else " + "
        parts.append(text if not parts else joiner + text)
    return "".join(parts)


def early_invalid(rng: np.random.Generator) -> str:
    """Invalid below x[i] = -0.99, so about 0.5% of uniform points fail
    and trials abort a few generations in."""
    i, j = (int(v) for v in rng.choice(DIMENSION, 2, replace=False))
    return f"sqrt(x[{i}] + 0.99) + x[{j}]**2"


# ------------------------------------------------------- scripted backend

REJECT_PROSE = "prose"
REJECT_SYMBOL = "symbol"
REJECT_INDEX = "index"
REJECT_PREVALIDATION = "prevalidation"
REJECTS = (REJECT_PROSE, REJECT_SYMBOL, REJECT_INDEX, REJECT_PREVALIDATION)
REPEAT_PARENT = "repeat-parent"
REPEAT_EARLIER = "repeat-earlier"
FRESH = "fresh"


@dataclass(frozen=True)
class Mix:
    """How many responses of each kind one recorded run receives, and the
    postfix lengths of its fresh formulas (in a seeded order)."""

    counts: dict
    fresh_ops: tuple[int, ...]

    @property
    def accepted(self) -> int:
        return sum(n for kind, n in self.counts.items() if kind not in REJECTS)


# generate, 4 generations at population 10: 39 offspring are accepted (9
# initial members, then 10 per generation).  17 rejects make 56 calls, 30%
# rejected; 8 repeats are 14% of calls and come back as cache hits.
GENERATE_MIX = Mix(
    counts={REJECT_PROSE: 5, REJECT_SYMBOL: 4, REJECT_INDEX: 4, REJECT_PREVALIDATION: 4,
            REPEAT_PARENT: 4, REPEAT_EARLIER: 4, FRESH: 31},
    fresh_ops=tuple(int(v) for v in np.linspace(40, 100, 31)),
)
# analyze, one generation at population 20: 19 fresh initial members, all
# of which stay in the run, so ``ebg lineage`` always compares the same
# number of texts of the same lengths.  Over a run of several generations
# the number of surviving texts follows the seed (17 to 24 were seen),
# and the edit-distance cost with it (2x).
LINEAGE_MIX = Mix(counts={FRESH: 19}, fresh_ops=(40,) * 19)

PROSE = (
    "Here is a function that rewards recombination: it mixes a smooth bowl with ripples.",
    "I would suggest a separable landscape, since the GA's crossover exploits separability.",
    "Sure! The problem below is harder for DE because of its rotated valleys.",
)


def call_schedule(rng: np.random.Generator, mix: Mix) -> list[str]:
    """Response kinds in call order; each accepted kind ends one request."""
    accepted = [k for k, n in mix.counts.items() if k not in REJECTS for _ in range(n)]
    accepted = [accepted[int(i)] for i in rng.permutation(len(accepted))]
    rejects = [k for k, n in mix.counts.items() if k in REJECTS for _ in range(n)]
    rejects = [rejects[int(i)] for i in rng.permutation(len(rejects))]
    # at most two rejects before any one acceptance, far below the
    # engine's per-offspring attempt budget
    before = np.zeros(len(accepted), dtype=int)
    for slot in rng.choice(2 * len(accepted), len(rejects), replace=False):
        before[int(slot) // 2] += 1
    schedule: list[str] = []
    for kind, n in zip(accepted, before):
        schedule += [rejects.pop() for _ in range(n)]
        schedule.append(kind)
    return schedule


def prompt_examples(prompt: str) -> list[str]:
    """Example formulas quoted in a prompt, without the ``f(x) =`` prefix."""
    lines = prompt.splitlines()
    out = []
    for k, line in enumerate(lines[:-1]):
        if line.startswith("Example "):
            text = lines[k + 1]
            out.append(text[len("f(x) = ") :] if text.startswith("f(x) = ") else text)
    return out


class ScriptedBackend:
    """Seeded stand-in for a chat endpoint, used only while recording.

    Follows :func:`call_schedule`, so the counts of each response kind
    are fixed; the seed picks their order and the formulas themselves.
    """

    name = "scripted"

    def __init__(self, seed: int, mix: Mix):
        self.rng = np.random.default_rng([seed, 2])
        self.schedule = call_schedule(self.rng, mix)
        self.lengths = [mix.fresh_ops[int(i)] for i in self.rng.permutation(len(mix.fresh_ops))]
        self.fresh: list[str] = []
        self.calls = 0

    def _wrap(self, text: str) -> str:
        style = int(self.rng.integers(3))
        if style == 0:
            return f"Problem: f(x) = {text}"
        if style == 1:
            return f"f(x) = {text}"
        return f"```python\nf(x) = {text}\n```"

    def complete(self, prompt: str) -> str:
        if self.calls >= len(self.schedule):
            raise RuntimeError("scripted backend ran past its schedule")
        kind = self.schedule[self.calls]
        self.calls += 1
        rng = self.rng
        if kind == REJECT_PROSE:
            return PROSE[int(rng.integers(len(PROSE)))]
        base = formula(rng, 30)
        if kind == REJECT_SYMBOL:
            return self._wrap(f"{base} + exp(x[{int(rng.integers(DIMENSION))}])")
        if kind == REJECT_INDEX:
            return self._wrap(f"{base} + x[{DIMENSION + int(rng.integers(3))}]**2")
        if kind == REJECT_PREVALIDATION:
            return self._wrap(f"{base} + sqrt(x[{int(rng.integers(DIMENSION))}] + 0.2)")
        if kind == REPEAT_PARENT or (kind == REPEAT_EARLIER and not self.fresh):
            examples = prompt_examples(prompt)
            return self._wrap(examples[int(rng.integers(len(examples)))])
        if kind == REPEAT_EARLIER:
            return self._wrap(self.fresh[int(rng.integers(len(self.fresh)))])
        text = formula(rng, self.lengths[len(self.fresh)])
        self.fresh.append(text)
        return self._wrap(text)
