"""The benchmark's workloads: fixed query sets whose order the seed permutes.

Each cold workload is a list of CLI argv lists, one fresh process per query.
The warm workload is a list of library operations (see session.py) run in
one long-lived process per pass.  Total work never depends on the seed.
"""

import random


def _q(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# One process per query, the way a CLI user runs it.  Loads e2, linalg and
# configspaces; never touches specht, tabloids or stability.
CONFIGSPACE_CLI = (
    [_q(f"betti --manifold torus --n {n} --i {min(n, 4)}") for n in range(2, 7)]
    + [_q(f"betti --manifold s2 --n {n} --i 1") for n in range(2, 7)]
    + [_q(f"betti --manifold cp1 --n {n} --i 3") for n in range(2, 7)]
    + [_q(f"e2 --manifold torus --n {n} --explicit") for n in range(2, 5)]
    + [_q(f"e2 --manifold s2 --n {n} --explicit") for n in range(2, 6)]
    + [_q(f"color-betti --manifold torus --mu 1 --n {n} --i 3") for n in range(3, 6)]
    + [_q(f"color-betti --manifold s2 --mu 2 --n {n} --i 3") for n in range(4, 6)]
)

# Loads specht, tabloids, perms, stability and linalg; never touches e2,
# configspaces or manifolds.
BRANCH_VERIFY = {"1": (5, 6, 7), "2": (5, 6), "1,1": (5, 6), "3": (5, 6), "2,1": (5,), "1,1,1": (5, 6)}
STABILITY_CLI = (
    [_q(f"branch --lambda {lam} --n {n} --verify") for lam, ns in BRANCH_VERIFY.items() for n in ns]
    + [_q(f"monotone --lambda {lam} --n-max 6") for lam in ("1", "2", "1,1", "2,1")]
    + [_q(f"stable --lambda {lam} --n-max 7") for lam in ("1", "2", "1,1", "2,1")]
    + [_q("branch --lambda 3,2,1 --n 7")]
)

# The acceptance gate's library calls in one process; names index session.OPS.
SHAPES = ("0", "1", "2", "11", "3", "21", "111")  # every partition of size <= 3
GATE_SESSION = (
    [f"c1.k{k}" for k in range(1, 6)]
    + [f"c3.claims.{lam}" for lam in SHAPES]
    + [f"c4.mono.{lam}" for lam in SHAPES]
    + [f"c4.stable.{lam}" for lam in SHAPES]
    + [f"c5.torus.n{n}" for n in range(2, 7)]
    + ["c6.s2", "c7.s3", "c8.chains", "c10.property_suite", "c11.arnold"]
)

WORKLOADS = {
    "configspace-cli": ("cold", CONFIGSPACE_CLI),
    "stability-cli": ("cold", STABILITY_CLI),
    "gate-session": ("warm", GATE_SESSION),
}

# Descriptors each warm child loads during set-up.
SESSION_MANIFOLDS = ("torus", "s2", "s3")

# Values stated independently of the code under test: the acceptance gate's
# torus table and sphere H^1, and the README's `betti torus n=4 i=4` -> 4.
TORUS_TABLE = {
    (2, 2): 1,
    (3, 2): 3, (4, 2): 3, (5, 2): 3, (6, 2): 3,
    (3, 3): 4,
    (4, 3): 5, (5, 3): 5, (6, 3): 5,
    (4, 4): 4,
    (5, 4): 7, (6, 4): 7,
}
INDEPENDENT_STDOUT = {
    **{f"betti --manifold torus --n {n} --i {i}": f"{v}\n" for (n, i), v in TORUS_TABLE.items()},
    **{f"betti --manifold s2 --n {n} --i 1": "0\n" for n in (2, 3, 4)},
}
INDEPENDENT_OPS = {
    **{
        f"c5.torus.n{n}": {str(i): TORUS_TABLE[(n, i)] for i in (2, 3, 4) if (n, i) in TORUS_TABLE}
        for n in range(2, 7)
    },
    "c6.s2": [0, 0, 0],
}


# Scaling curves in n: per-layer metric prefix -> query id.
LADDERS = {
    **{f"ladder.betti.torus.n{n}": f"betti --manifold torus --n {n} --i {min(n, 4)}" for n in range(2, 7)},
    **{
        f"ladder.branch-verify.{lam.replace(',', '')}.n{n}": f"branch --lambda {lam} --n {n} --verify"
        for lam, ns in BRANCH_VERIFY.items()
        for n in ns
    },
}


def query_id(item) -> str:
    """Oracle key of a query (argv joined by spaces) or an op (its name)."""
    return item if isinstance(item, str) else " ".join(item)


def pass_orders(items, seed: int):
    """Endless seeded permutations of the fixed multiset, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order
