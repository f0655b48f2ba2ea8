"""Exhaustive soundness search for `Core.certified`, the no-overflow certificate.

Scope: every one-neuron network of 1 to 3 input lines in Q2.1 and Q3.1, with
every weight word, every decay > 0 and every threshold >= 0, growth 1 and
reset by subtraction.  For each network that `Core` or one of the
certificate mutants of `test_mutants.py` certifies, the (membrane,
refractory counter) states that the core reaches from zero are explored
under every subset of active inputs, for refractory periods 0 to 2, under
WRAP and SATURATE.  A certified network whose membrane update, the value
that `_lif` fits, leaves [min_raw, max_raw] in a reachable state is one whose
skipped fit would have changed a value.

Exits 1 if `Core` certifies such a network.  For each mutant it prints the
first such network that it certifies, with a stimulus that reaches the bad
update, for `test_mutants.py` to freeze; or that there is none in this
scope, so that the mutant is equivalent here.

Run: PYTHONPATH=src python tests/certificate_search.py
"""

import functools
import itertools
import sys

import test_mutants
from spikecore.core import Core, CoreConfig, RealRegisters
from spikecore.fixedpoint import SATURATE, WRAP, QFormat, add_raw

FORMATS = (QFormat(2, 1), QFormat(3, 1))
PERIODS = (0, 1, 2)
CERTIFICATES = (Core, *test_mutants.CERTIFICATE_MUTANTS)


def activations(fmt, weights, policy):
    """Per subset of active lines (as a tuple of 0/1), the activation the core
    sums: the plain sum under WRAP, the ordered clamped fold under SATURATE."""
    out = {}
    for row in itertools.product((0, 1), repeat=len(weights)):
        act = 0
        for fired, w in zip(row, weights):
            if fired:
                act = act + w if policy is WRAP else add_raw(act, w, fmt, SATURATE)
        out[row] = act
    return out


@functools.cache
def overflow(fmt, policy, decay, vth, period, weights):
    """The shortest stimulus, a list of input rows, after which the core's
    update of a neuron not held, from the zero state, leaves the range; None if
    none does.  Up to the first such update the core's fits change nothing, so
    a breadth-first search over (membrane, counter) with fit-free arithmetic
    is exact.  A held neuron at v is at v unheld some cycles later, so its
    thrown-away update is one that the neuron also makes unheld."""
    acts = activations(fmt, weights, policy)
    path = {(0, 0): []}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for v, r in frontier:
            leaked = v - ((decay * v) >> fmt.q)
            # A held neuron's update is thrown away, its fit changes no output.
            for row, act in acts.items() if not r else [((0,) * len(weights), 0)]:
                u = leaked + act
                if not (r or fmt.min_raw <= u <= fmt.max_raw):
                    return path[(v, r)] + [row]
                state = (v, r - 1) if r else (u - vth, period) if u >= vth else (u, 0)
                if state not in path:
                    path[state] = path[(v, r)] + [row]
                    nxt.append(state)
        frontier = nxt
    return None


def certified(fmt, lines, decay, vth):
    """Per certificate class, the weight vectors of `lines` words it certifies."""
    regs = RealRegisters(decay_rate=decay * fmt.quantum, growth_rate=1.0,
                         v_threshold=vth * fmt.quantum)
    cfg = CoreConfig.uniform(fmt, (lines, 1), regs)
    words = range(fmt.min_raw, fmt.max_raw + 1)
    out = {}
    for cls in CERTIFICATES:
        core, out[cls] = cls(cfg), []
        for weights in itertools.product(words, repeat=lines):
            core.planes[0].raw[:, 0] = weights
            if core.certified(0):
                out[cls].append(weights)
    return out


def search():
    """(networks checked, unsound networks of `Core`, first killer per mutant)."""
    checked, unsound, killers = 0, [], {}
    for fmt in FORMATS:
        for lines, decay, vth in itertools.product(
                (1, 2, 3), range(1, min(fmt.max_raw, 1 << fmt.q) + 1), range(fmt.max_raw + 1)):
            for cls, nets in certified(fmt, lines, decay, vth).items():
                for weights, policy, period in itertools.product(nets, (WRAP, SATURATE), PERIODS):
                    checked += cls is Core
                    stimulus = overflow(fmt, policy, decay, vth, period, weights)
                    if stimulus is None:
                        continue
                    net = (fmt, weights, decay, vth, period, policy, stimulus)
                    if cls is Core:
                        unsound.append(net)
                    elif cls not in killers or len(stimulus) < len(killers[cls][-1]):
                        killers[cls] = net
    return checked, unsound, killers


def main() -> int:
    checked, unsound, killers = search()
    print(f"{checked} certified networks checked (network x policy x period)")
    for fmt, weights, decay, vth, period, policy, stimulus in unsound[:10]:
        print(f"UNSOUND: {fmt} weights {weights} decay {decay} vth {vth} period {period} "
              f"{policy.name}: stimulus {stimulus}")
    for cls in test_mutants.CERTIFICATE_MUTANTS:
        if cls not in killers:
            print(f"{cls.__name__}: no network in scope tells it from Core (equivalent here)")
            continue
        fmt, weights, decay, vth, period, policy, stimulus = killers[cls]
        print(f"{cls.__name__}: {fmt} weights {weights} decay {decay} vth {vth} "
              f"period {period} {policy.name}: stimulus {stimulus}")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
