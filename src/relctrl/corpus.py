"""Bundled example arrays used by the documentation, tests and CLI.

Six named arrays cover the interesting verdict combinations:

    watertanks             three integrator tanks, two one-way pumps;
                           controllable but not positively controllable
    watertanks-ring        same tanks, three pumps in a ring; both hold
    oscillators-a/-b       three coupled tenth-order LC oscillators with
                           two resistor placements; (a) is controllable,
                           (b) loses connectivity at one eigenvalue pair
    counterexample-23      three fourth-order systems whose eigenvector
                           graph is (2,3)-connected even though the array
                           is not (2,3)-controllable
    integrator-chain-ring  double integrators coupled in a ring at the
                           velocity state; positively pairwise
                           controllable with both assumptions settled

random_array_spec draws the small random arrays of the test suite and
of scripts/oracle_agreement.py.
"""

from __future__ import annotations

import numpy as np

from .array_model import ArraySpec

TRIANGLE = np.array(
    [
        [1.0, 0.0, -1.0],
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0],
    ]
)


def watertanks() -> ArraySpec:
    A = [[0.0]]
    incidence = [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]
    return ArraySpec.from_incidence(A, incidence, name="watertanks")


def watertanks_ring() -> ArraySpec:
    return ArraySpec.from_incidence([[0.0]], TRIANGLE, name="watertanks-ring")


def _oscillator(variant: str) -> ArraySpec:
    # Ladder of five unit inductors tied by unit capacitors; states are
    # the node voltages followed by the inductor currents.
    C = (
        2.0 * np.eye(5)
        - np.diag(np.ones(4), 1)
        - np.diag(np.ones(4), -1)
    )
    Cinv = np.linalg.inv(C)
    A = np.block([[np.zeros((5, 5)), -Cinv], [np.eye(5), np.zeros((5, 5))]])
    tap = 5 if variant == "a" else 4     # resistor tap node of the third coupling

    def inject(node: int) -> np.ndarray:
        v = np.zeros(10)
        v[:5] = Cinv[:, node - 1]
        return v

    b11, b22, b33 = inject(2), inject(3), inject(tap)
    zero = np.zeros(10)
    blocks = [
        [b11, zero, -b33],
        [-b11, b22, zero],
        [zero, -b22, b33],
    ]
    return ArraySpec.from_blocks(A, blocks, name=f"oscillators-{variant}")


def oscillators_a() -> ArraySpec:
    return _oscillator("a")


def oscillators_b() -> ArraySpec:
    return _oscillator("b")


def counterexample_23() -> ArraySpec:
    A = [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    incidence = [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, -1.0],
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ]
    return ArraySpec.from_incidence(A, incidence, name="counterexample-23")


def integrator_chain_ring() -> ArraySpec:
    A = [[0.0, 1.0], [0.0, 0.0]]
    incidence = np.kron(TRIANGLE, np.array([[0.0], [1.0]]))
    return ArraySpec.from_incidence(A, incidence, name="integrator-chain-ring")


EXAMPLES = {
    "watertanks": watertanks,
    "watertanks-ring": watertanks_ring,
    "oscillators-a": oscillators_a,
    "oscillators-b": oscillators_b,
    "counterexample-23": counterexample_23,
    "integrator-chain-ring": integrator_chain_ring,
}


def example_names() -> list[str]:
    return list(EXAMPLES)


def build_example(name: str) -> ArraySpec:
    try:
        return EXAMPLES[name]()
    except KeyError:
        known = ", ".join(example_names())
        raise KeyError(f"unknown example {name!r}; known names: {known}") from None


def random_array_spec(rng: np.random.Generator, n_max=3, q_max=4, p_max=5) -> ArraySpec:
    """Random array whose input columns are unit edges times a random vector.

    n, q and p are uniform on 1..n_max, 2..q_max and 1..p_max, A has
    standard normal entries, and input s injects +w into one system and
    -w into another, w standard normal.
    """
    n = int(rng.integers(1, n_max + 1))
    q = int(rng.integers(2, q_max + 1))
    p = int(rng.integers(1, p_max + 1))
    A = rng.standard_normal((n, n))
    B = np.zeros((q, p, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        w = rng.standard_normal(n)
        B[i, s] = w
        B[j, s] = -w
    return ArraySpec(n=n, q=q, p=p, A=A, B=B, name=f"random-{n}-{q}-{p}")
