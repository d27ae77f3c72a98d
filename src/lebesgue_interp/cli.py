"""Command-line front door: sample, reconstruct, bench and verify. ``bench --data-dir``
hands its directory to ``bench.run_ucr_archive``, which owns the UCR archive's file rules.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .baselines import reconstruct_signal
from .bench import (
    METHODS,
    ExperimentConfig,
    ExperimentMode,
    emit_report,
    generate_synthetic_corpus,
    parse_finite_fields,
    run_benchmark,
    run_ucr_archive,
)
from .core import InvalidInputError, ParseError, ReconstructionParams, SampledSeries, TimeSeries
from .sampling import SampleBudget, lebesgue_sample, riemann_sample
from .verify import run_all_checks

__all__ = ["main", "entrypoint"]


def _read_signal(path: Path) -> TimeSeries:
    """Values split by blanks and commas; an empty comma field stays '', which does not parse."""
    fields, lines = [], []  # every value field; each line's (row, end) in fields
    with path.open() as fh:
        for r, line in enumerate(fh):
            line = line.strip()
            if line and not line.startswith("#"):
                for part in line.split(","):
                    fields += part.split() or [""]
                lines.append((r, len(fields)))
    values = parse_finite_fields(fields, path, lines)
    if not values.size:
        raise InvalidInputError(f"{path} contains no values")
    return TimeSeries(values)


def _write_points(path: Path, indices, values: np.ndarray, comment: str = "") -> None:
    """``index,value`` rows after ``comment``; csv writes each float as its repr."""
    with path.open("w", newline="") as fh:
        fh.write(comment)
        w = csv.writer(fh)
        w.writerow(["index", "value"])
        w.writerows(zip(indices, values.tolist()))


def _parse_field(path: Path, what: str, parse, text: str, row: int):
    """``parse(text)``, or a ParseError naming the file, the field and the row."""
    try:
        return parse(text)
    except ValueError:
        raise ParseError(f"{path}: cannot parse {what} {text!r} at row {row}", row=row) from None


def int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} is outside the int64 range")
    return value


def _read_sampled(path: Path, length: int | None, threshold: float | None) -> SampledSeries:
    meta: dict[str, tuple[str, int]] = {}
    idx: list[int] = []
    vals, lines = [], []  # every value field; each line's (row, end) in vals
    with path.open() as fh:
        for r, line in enumerate(fh):
            line = line.strip()
            if line.startswith("#"):
                for k, v in (token.split("=", 1) for token in line[1:].split() if "=" in token):
                    if k in meta:
                        raise ParseError(f"{path}: metadata key {k!r} at row {meta[k][1]} "
                                         f"is given again at row {r}", row=r)
                    meta[k] = (v, r)
            elif line and not line.lower().startswith("index"):
                parts = line.split(",")
                if len(parts) != 2:
                    raise ParseError(f"{path}: expected 'index,value' at row {r}", row=r)
                idx.append(_parse_field(path, "index", int64, parts[0], r))
                vals.append(parts[1])
                lines.append((r, len(vals)))
    values = parse_finite_fields(vals, path, lines, first_column=1)
    if length is None:
        if "source_length" not in meta:
            raise InvalidInputError(f"{path} has no source_length metadata; pass --length")
        length = _parse_field(path, "source_length", int64, *meta["source_length"])
    if threshold is None:
        threshold = _parse_field(path, "threshold", float, *meta.get("threshold", ("0", 0)))
    return SampledSeries(np.asarray(idx), values, length, threshold)


def _cmd_sample(args) -> int:
    ts = _read_signal(Path(args.input))
    if args.regime == "lebesgue":
        s = lebesgue_sample(ts, args.threshold)
    else:
        s = riemann_sample(ts, SampleBudget(args.fraction))
    meta = f"# source_length={s.source_length} threshold={s.threshold!r}\n"
    _write_points(Path(args.output), s.indices.tolist(), s.values, meta)
    print(f"kept {len(s)}/{s.source_length} points ({s.fraction:.4f}) -> {args.output}")
    return 0


def _cmd_reconstruct(args) -> int:
    s = _read_sampled(Path(args.input), args.length, args.threshold)
    params = ReconstructionParams(s.threshold, **_reconstruction_args(args))
    _, plan, kernel = METHODS[args.method]
    try:
        if s.source_length > sys.maxsize // 8:  # numpy refuses float64 arrays this long outright
            raise MemoryError
        values = reconstruct_signal(plan, kernel, s, params)
    except MemoryError:
        raise InvalidInputError(f"source length {s.source_length} does not fit in memory") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:  # the reconstruction itself exceeds the float64 range
        raise InvalidInputError(f"{args.method} output is not finite at index {int(bad[0])}")
    out = Path(args.output)
    _write_points(out, range(values.size), values)
    print(f"reconstructed {values.size} points with {args.method} -> {out}")
    return 0


def _cmd_bench(args) -> int:
    mode = ExperimentMode.FIXED_THRESHOLD if args.experiment == 1 else ExperimentMode.BUDGET
    if args.data_dir == "":  # Path("") is the working directory
        raise InvalidInputError("--data-dir is empty; name a directory")
    methods = (tuple(METHODS) if args.methods is None
               else tuple(m.strip() for m in args.methods.split(",")))
    config = ExperimentConfig(
        mode=mode,
        threshold=args.threshold,
        target_fraction=args.budget,
        **_reconstruction_args(args),
        methods=methods,
        seed=args.seed,
    )
    if args.data_dir is not None:
        report = run_ucr_archive(args.data_dir, config)
    else:
        counts = {}
        for token in args.synthetic.split(","):
            fam, _, cnt = token.partition("=")
            fam = fam.strip()
            if not fam:
                raise InvalidInputError(f"--synthetic: entry {token!r} names no family")
            if fam in counts:
                raise InvalidInputError(f"--synthetic names {fam!r} twice: {token!r}")
            try:
                counts[fam] = int(cnt) if cnt else 10
            except ValueError:
                msg = f"--synthetic: cannot parse the count in {token!r}"
                raise InvalidInputError(msg) from None
        bundles = [
            generate_synthetic_corpus(args.seed + i, {fam: cnt}, length=args.length, name=fam)
            for i, (fam, cnt) in enumerate(counts.items())
        ]
        report = run_benchmark(bundles, config)
    written = emit_report(report, args.out)
    best = report.summary[0]
    print(f"{len(report.datasets)} dataset(s); best method {best.method_name} "
          f"(mean RMSE {best.mean_rmse:.6g}, wins {best.wins})")
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_verify(args) -> int:
    results = run_all_checks()
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def _add_reconstruction_flags(p: argparse.ArgumentParser) -> None:
    """The band and turn-gate flags, defaulting to ReconstructionParams' own."""
    p.add_argument("--tolerance-ratio", type=float, default=ReconstructionParams.tolerance_ratio)
    p.add_argument("--prev-dist", type=int, default=ReconstructionParams.previous_distance)
    p.add_argument("--min-dist", type=int, default=ReconstructionParams.subsequent_min_distance)
    p.add_argument("--max-dist", type=int, default=ReconstructionParams.subsequent_max_distance)


def _reconstruction_args(args) -> dict[str, object]:
    """The flags of ``_add_reconstruction_flags`` as ReconstructionParams fields."""
    return {"tolerance_ratio": args.tolerance_ratio, "previous_distance": args.prev_dist,
            "subsequent_min_distance": args.min_dist, "subsequent_max_distance": args.max_dist}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lebesgue-interp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="downsample one signal file to a sampled-points CSV")
    p.add_argument("--input", required=True, help="signal file, one value per line")
    p.add_argument("--output", required=True, help="sampled-points CSV to write")
    p.add_argument("--regime", choices=("lebesgue", "riemann"), default="lebesgue")
    p.add_argument("--threshold", type=float, default=ExperimentConfig.threshold,
                   help="event threshold (lebesgue)")
    p.add_argument("--fraction", type=float, default=ExperimentConfig.target_fraction,
                   help="sample share (riemann)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("reconstruct", help="rebuild a full signal from a sampled-points CSV")
    p.add_argument("--input", required=True, help="sampled-points CSV from the sample command")
    p.add_argument("--output", required=True, help="reconstruction CSV to write")
    p.add_argument("--method", required=True, choices=sorted(METHODS))
    p.add_argument("--threshold", type=float, default=None,
                   help="event threshold; defaults to the file's metadata")
    p.add_argument("--length", type=int64, default=None,
                   help="original length; defaults to the file's metadata")
    _add_reconstruction_flags(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("bench", help="run the RMSE comparison protocol and write reports")
    p.add_argument("--experiment", type=int, choices=(1, 2), default=1,
                   help="1 = fixed threshold, 2 = sample budget")
    p.add_argument("--threshold", type=float, default=ExperimentConfig.threshold)
    p.add_argument("--budget", type=float, default=ExperimentConfig.target_fraction)
    _add_reconstruction_flags(p)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", default="bench_out", help="output directory for report files")
    p.add_argument("--data-dir", default=None,
                   help="directory with <Name>_TRAIN.tsv[/<Name>_TEST.tsv] datasets")
    p.add_argument("--synthetic", default="step=10,ramp=10,sine=10,triangle=10",
                   help="family=count list used when no --data-dir is given")
    p.add_argument("--length", type=int, default=500, help="synthetic signal length")
    p.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run the built-in property checks")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 after printing a usage error
        return 1 if exc.code else 0
    except ValueError as exc:  # every error of .core is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
