//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run record and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails, 2 on bad arguments.

use std::io::Write;
use std::process::ExitCode;

use perfbench::json::Json;
use perfbench::run::{run, Args, Workload};
use perfbench::spans::Span;

const USAGE: &str = "usage: perfbench --workload <local-bank|replicated-shards|hot-open|restart> \
                     --seed <n> --seconds <s> --trace <0|1> [--corrupt-shadow]";

/// Where run records and spans are written, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-runs";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LocalBank,
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt_shadow: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-shadow" {
            args.corrupt_shadow = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\ttid\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let tid = s.tid.map_or("-".to_string(), |t| t.to_string());
        out.push_str(&format!("{}\t{parent}\t{}\t{tid}\t{}\t{}\n", s.id, s.name, s.start, s.end));
    }
    out
}

fn write_out(name: &str, body: &str) {
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/{name}"), body));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {OUT_DIR}/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let outcome = match run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    write_out(&format!("{stem}.json"), &format!("{}\n", outcome.record));
    if args.trace {
        write_out(&format!("{stem}-spans.tsv"), &spans_tsv(&outcome.spans));
    }
    let metrics = Json::obj(outcome.metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    }));
    let result = Json::obj([
        ("correct", Json::Bool(outcome.problems.is_empty())),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics),
    ]);
    let mut stdout = std::io::stdout().lock();
    let printed = writeln!(stdout, "run-record: {}", outcome.record)
        .and_then(|()| writeln!(stdout, "{result}"))
        .and_then(|()| stdout.flush());
    if printed.is_err() || !outcome.problems.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
