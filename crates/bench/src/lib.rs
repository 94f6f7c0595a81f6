//! The one bench harness every `BENCH_*.json` emitter in `src/bin/` runs
//! under: argument parsing, named gates, the report file and the exit
//! status.
//!
//! ```no_run
//! use occam_bench::Bench;
//!
//! fn main() -> std::process::ExitCode {
//!     let mut bench = Bench::from_args("demo");
//!     let rounds: u32 = bench.arg(0, "rounds").unwrap_or(if bench.smoke() { 10 } else { 100 });
//!     let speedup = 12.5;
//!     bench.gate(speedup >= 10.0, format!("speedup {speedup:.1}x >= 10x"));
//!     bench.finish(|w| {
//!         w.field("rounds", rounds);
//!     })
//! }
//! ```
//!
//! Arguments: `--smoke` selects the CI-sized run; anything not starting
//! with `--` is a positional override the bin reads with [`Bench::arg`].
//! A full run refreshes the committed `BENCH_<name>.json` at the
//! repository root; a `--smoke` run writes
//! `target/bench-smoke/BENCH_<name>.json` instead, so it can never
//! overwrite a committed result. Every report opens with a `"smoke"`
//! field saying which kind of run wrote it. The report is written
//! *before* gates are judged — a failing run still leaves its numbers
//! behind.

use occam_obs::json::Writer;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The repository root (this crate lives at `crates/bench`), where full
/// runs refresh the committed reports.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
}

/// One bench run: its arguments, the gates that failed so far, and the
/// report it will write.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    smoke: bool,
    positional: Vec<String>,
    failed: Vec<String>,
}

impl Bench {
    /// The run described by the process arguments; writes
    /// `BENCH_<name>.json`.
    pub fn from_args(name: &'static str) -> Bench {
        Bench::parse(name, std::env::args().skip(1))
    }

    fn parse(name: &'static str, args: impl Iterator<Item = String>) -> Bench {
        let (flags, positional): (Vec<String>, Vec<String>) =
            args.partition(|a| a.starts_with("--"));
        Bench {
            name,
            smoke: flags.iter().any(|f| f == "--smoke"),
            positional,
            failed: Vec::new(),
        }
    }

    /// Whether this is the CI-sized `--smoke` run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The `index`-th positional argument, or `None` when it was not
    /// given. Panics, naming `what`, when it does not parse.
    pub fn arg<T: FromStr>(&self, index: usize, what: &str) -> Option<T> {
        self.positional.get(index).map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| panic!("argument {}: `{raw}` is not a valid {what}", index + 1))
        })
    }

    /// Checks one gate. `what` states the requirement; when `ok` is false
    /// it is reported as a failure by [`Bench::finish`].
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed.push(what.into());
        }
    }

    /// Gates that have failed so far.
    pub fn failed_gates(&self) -> usize {
        self.failed.len()
    }

    /// Writes the report (`"smoke"`, then the root object's fields `body`
    /// writes), then prints every failed gate. The status is failure iff a gate failed.
    pub fn finish(&self, body: impl FnOnce(&mut Writer)) -> ExitCode {
        let root = repo_root();
        if self.smoke {
            self.finish_in(&root.join("target/bench-smoke"), body)
        } else {
            self.finish_in(root, body)
        }
    }

    fn finish_in(&self, dir: &Path, body: impl FnOnce(&mut Writer)) -> ExitCode {
        let mut w = Writer::default();
        w.object(|w| {
            w.field("smoke", self.smoke);
            body(w);
        });
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, w.finish() + "\n"))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        for what in &self.failed {
            eprintln!("FAIL: {what}");
        }
        if self.failed.is_empty() {
            println!("gates passed");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(args: &[&str]) -> Bench {
        Bench::parse("unit", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn smoke_flag_and_positionals_parse_in_any_order() {
        let b = bench(&["300", "--smoke", "500"]);
        assert!(b.smoke());
        assert_eq!(b.arg::<u32>(0, "writes"), Some(300));
        assert_eq!(b.arg::<u32>(1, "reads"), Some(500));
        assert_eq!(b.arg::<u32>(2, "extra"), None);
        assert!(!bench(&["7"]).smoke());
    }

    #[test]
    #[should_panic(expected = "argument 1: `many` is not a valid audits")]
    fn unparsable_positional_is_rejected() {
        bench(&["many"]).arg::<u32>(0, "audits");
    }

    #[test]
    fn failed_gate_still_writes_the_report_and_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("occam-bench-unit-{}", std::process::id()));
        let mut b = bench(&["--smoke"]);
        b.gate(true, "holds");
        assert_eq!(b.finish_in(&dir, |_| {}), ExitCode::SUCCESS);
        b.gate(false, "speedup 1.0x >= 2.0x");
        assert_eq!(b.failed_gates(), 1);
        let status = b.finish_in(&dir, |w| {
            w.field("gate_failures", b.failed_gates());
        });
        assert_eq!(status, ExitCode::FAILURE);
        let written = std::fs::read_to_string(dir.join("BENCH_unit.json")).expect("report");
        assert_eq!(written, "{\"smoke\":true,\"gate_failures\":1}\n");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn committed_reports_have_a_bin_and_are_full_runs() {
        let bins: Vec<String> =
            std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin"))
                .expect("src/bin")
                .map(|e| std::fs::read_to_string(e.expect("dir entry").path()).expect("bin source"))
                .collect();
        for entry in std::fs::read_dir(repo_root()).expect("repository root") {
            let path = entry.expect("dir entry").path();
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            let call = format!("Bench::from_args(\"{name}\")");
            assert!(
                bins.iter().any(|src| src.contains(&call)),
                "{file}: no src/bin/*.rs calls {call}"
            );
            let report = std::fs::read_to_string(&path).expect("report");
            assert!(
                !report.contains("\"smoke\":true"),
                "{file} was written by a --smoke run"
            );
        }
    }
}
