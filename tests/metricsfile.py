"""Reader for the per-epoch metrics CSV that `rbmkit train-rbm` writes."""

import csv

from rbmkit.trainer import EpochMetrics


def read_metrics_csv(path) -> list:
    """The file's rows as EpochMetrics; '#' comment lines are skipped."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [EpochMetrics(int(r["epoch"]), float(r["recon_error"]),
                         float(r["mean_free_energy"]), float(r["seconds"]),
                         r["estimator"], int(r["seed"]))
            for r in csv.DictReader(lines)]
