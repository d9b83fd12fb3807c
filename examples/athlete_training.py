"""The paper's athlete-training application (Section 1).

"In the case of designing a training program for an athlete, it is
critical to identify the specific subspace(s) in which an athlete
deviates from his or her teammates in the daily training performances."

This example mines a squad of athletes (eight named disciplines) for the
exact disciplines in which three athletes fall behind, then sketches the
targeted training program the paper envisions.

Run:  python examples/athlete_training.py
"""

from __future__ import annotations

from repro import HOSMiner
from repro.data import load_athletes, zscore


def main() -> None:
    squad = load_athletes()
    print(f"squad: {squad.n} athletes x {squad.d} disciplines")
    print(f"disciplines: {', '.join(squad.feature_names)}\n")

    # Disciplines live on wildly different scales (reaction time in
    # seconds vs strength scores) — normalise before mining.
    miner = HOSMiner(k=6, sample_size=8, threshold_quantile=0.99)
    miner.fit(zscore(squad.X), feature_names=squad.feature_names)
    print(f"threshold T = {miner.threshold_:.3f} "
          f"(99th percentile of full-space outlying degrees)\n")

    for row in squad.outlier_rows:
        result = miner.query_row(row)
        print(f"=== athlete #{row} ===")
        print(result.explain())
        if result.is_outlier:
            weak = sorted(
                {miner_name for s in result.minimal for miner_name in
                 (squad.feature_names[dim] for dim in s.dims)}
            )
            print(f"-> targeted training plan: drill {', '.join(weak)}")
        print()

    # Control: a regular squad member has no outlying subspace.
    regular = miner.query_row(37)
    print("=== athlete #37 (control) ===")
    print(regular.explain())


if __name__ == "__main__":
    main()
