"""Row-by-row CSV writers kept as byte-level references for the column-wise writer.

These are the package's writers as they were before every table went through
`dataset.write_csv`: `save_csv` and `write_loss_report` verbatim (the
latter reading each arm's count and mean from the stats' (bin, arm) table),
and the trace loop of `cli` wrapped into a function with its body unchanged.
Tests compare the bytes the package writes now against these.
"""

import csv

from liftloss.dataset import ABDataset


def save_csv(dataset: ABDataset, path) -> None:
    """Write a dataset to CSV at full float precision (round-trips exactly)."""
    d = dataset.d
    header = [f"f{j}" for j in range(d)] + ["y", "arm"]
    has_lift = dataset.true_lift is not None
    if has_lift:
        header.append("true_lift")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.outcome[i])))
            row.append(str(int(dataset.arm[i])))
            if has_lift:
                row.append(repr(float(dataset.true_lift[i])))
            writer.writerow(row)


def write_loss_report(report, path) -> None:
    """Write per-bin rows as CSV with a trailing '#' summary line."""
    s = report.stats
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "size", "size_t", "size_c", "mean_pred", "mean_y_t", "mean_y_c", "lift"])
        for i in range(report.n_bins):
            writer.writerow(
                [
                    i + 1,
                    int(s.size[i]),
                    int(s.count[i, 1]),
                    int(s.count[i, 0]),
                    repr(float(s.mean_pred[i])),
                    repr(float(s.mean_y[i, 1])),
                    repr(float(s.mean_y[i, 0])),
                    repr(float(s.lift[i])),
                ]
            )
        fh.write(
            f"# loss={report.loss!r} bias={report.bias_term!r} "
            f"separation={report.separation_term!r} n_bins={report.n_bins} "
            f"total_size={s.total_size} global_lift={s.global_lift!r}\n"
        )


def write_trace(trace_path, params, entries) -> None:
    """`train`'s trace.csv: `params` is the final parameter vector, `entries` the trace."""
    with open(trace_path, "w", encoding="utf-8") as fh:
        names = ",".join(f"p{i}" for i in range(params.size))
        fh.write(f"step,loss,bias,separation,{names}\n")
        for e in entries:
            values = ",".join(repr(float(v)) for v in e.params)
            fh.write(f"{e.step},{e.loss!r},{e.bias_term!r},{e.separation_term!r},{values}\n")

