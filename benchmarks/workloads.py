"""The benchmark's workloads: one pinned training recipe each.

Every workload runs the same pipeline (see run.py).  The fields below are
its whole make-up; README.md lists them as a table.  Step counts, tau and
the RMSE targets were chosen on the default seeds (data and split 11,
init and optimizer 0) so that training reaches the validation target well
before its last step, pruning drops at least one edge, and every RMSE sits
clearly under its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    equation: str           # registry id in quirk.data
    n_samples: int          # rows before the 70/15/15 split
    shape: tuple            # bracket notation, e.g. (2, 2, 1)
    dr_layers: object       # int, or one int per network layer
    qubits_per_edge: int
    entangle: bool
    batch_size: object      # None = full training batch
    learning_rate: float
    steps: int              # Adam steps; patience equals steps
    val_target: float       # validation RMSE that time_to_target_s waits for
    test_tol: float         # test RMSE of the trained model must be below
    tau: float              # prune threshold, share of the best edge score
    fine_tune_steps: int
    pruned_tol: float       # test RMSE of the pruned model must be below
    round_steps: int        # Adam steps of the short train() of a round
    score_rows: int         # rows in the large scoring batch
    reports_per_round: int  # report() calls per serving round
    request_block: int      # single-row requests per serving round


WORKLOADS = {
    # I.6.2 [2,2,1] with L=3 is the acceptance recipe (criteria 5 and 6) at a
    # quarter of its 4000 steps, so small per-call costs show.
    "recipe": Workload(
        name="recipe", equation="I.6.2", n_samples=3000, shape=(2, 2, 1),
        dr_layers=3, qubits_per_edge=1, entangle=False, batch_size=None,
        learning_rate=0.02, steps=1000, val_target=0.017, test_tol=5e-2,
        tau=0.55, fine_tune_steps=100, pruned_tol=0.15, round_steps=20,
        score_rows=20000,
        reports_per_round=10, request_block=600),
    # 84 edges of depth 5: the DR kernel and its stored backward states
    # dominate step time, peak memory and report().  Scoring 2000 rows keeps
    # its arrays near L2 size; at 8000 rows the rate fell by a third while
    # other tenants of the host filled the shared L3.
    "wide": Workload(
        name="wide", equation="II.11.7", n_samples=3000, shape=(6, 8, 4, 1),
        dr_layers=5, qubits_per_edge=1, entangle=False, batch_size=None,
        learning_rate=0.05, steps=60, val_target=0.12, test_tol=0.15,
        tau=0.1, fine_tune_steps=10, pruned_tol=0.2, round_steps=2,
        score_rows=2000,
        reports_per_round=2, request_block=900),
    # 2-qubit entangled edges take the per-edge loop in network._layer_eval;
    # minibatches take the minibatch branch of train._fit.
    "multiqubit": Workload(
        name="multiqubit", equation="I.15.3x", n_samples=3000, shape=(4, 2, 1),
        dr_layers=(2, 1), qubits_per_edge=2, entangle=True, batch_size=256,
        learning_rate=0.02, steps=300, val_target=0.04, test_tol=5e-2,
        tau=0.375, fine_tune_steps=30, pruned_tol=1e-1, round_steps=6,
        score_rows=8000,
        reports_per_round=3, request_block=600),
}

# Smoke variants: a few steps each, every check on.  Targets and tolerances
# are loose because a few steps cannot train; tau is set so that an edge
# still falls without cutting the output off.
SMOKE = {
    "recipe": dict(steps=30, val_target=0.5, test_tol=1.0, tau=0.3,
                   fine_tune_steps=5, pruned_tol=1.0, score_rows=500,
                   request_block=20),
    "wide": dict(steps=3, val_target=2.0, test_tol=2.0, tau=0.2,
                 fine_tune_steps=2, pruned_tol=2.0, score_rows=300,
                 request_block=10),
    "multiqubit": dict(steps=10, val_target=1.0, test_tol=1.0, tau=0.35,
                       fine_tune_steps=3, pruned_tol=1.0, score_rows=300,
                       request_block=10),
}


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w
