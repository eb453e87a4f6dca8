//! # dlp-bench
//!
//! The experiment harness. `report` regenerates every one of the paper's
//! tables and figures; the other binaries run the harnesses around them
//! (see DESIGN.md's per-experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `report` | Tables 1, 2, 3 and 5 and the §3 classic-architecture survey (static), then Table 4, Figure 5, Table 6 and the [`studies`] (A1–A3, X1, X5, X6) from one sweep — printed as markdown; Figure 5 and Table 6 are written to `report.json` |
//! | `sweep` | the full kernel × configuration grid in one parallel batch → `BENCH_sweep.json` |
//! | `faults` | fault-injection sweep → `BENCH_faults.json` |
//! | `stats` | per-run statistics of one kernel on one configuration |
//! | `hotpath` | engine hot-path throughput (simulation only, scheduling excluded) → `BENCH_hotpath.json` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hotpath;
pub mod studies;

use std::fmt::Display;
use std::str::FromStr;

/// A binary's command line, read flag by flag.
///
/// Every lookup marks the arguments it reads as consumed, and
/// [`Args::finish`] rejects the first argument nothing consumed. So the
/// flags a binary accepts are exactly the ones its code looks up: a
/// misspelt flag is an error instead of a silently ignored word.
pub struct Args {
    program: String,
    args: Vec<String>,
    used: Vec<bool>,
    /// Every flag looked up so far, as `--name` or `--name VALUE`.
    known: Vec<String>,
    /// The first value flag that was given without a value.
    missing_value: Option<String>,
}

impl Args {
    /// The process's command line.
    #[must_use]
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::new(&program, args.collect())
    }

    /// A command line for `program` with the given arguments (without
    /// the program name).
    fn new(program: &str, args: Vec<String>) -> Self {
        let program = std::path::Path::new(program)
            .file_name()
            .map_or_else(|| program.to_string(), |f| f.to_string_lossy().into_owned());
        let used = vec![false; args.len()];
        Self { program, args, used, known: Vec::new(), missing_value: None }
    }

    /// Whether the switch `name` was passed.
    pub fn switch(&mut self, name: &str) -> bool {
        self.known.push(name.to_string());
        let mut found = false;
        for (arg, used) in self.args.iter().zip(&mut self.used) {
            if arg == name && !*used {
                *used = true;
                found = true;
            }
        }
        found
    }

    /// The argument after the value flag `name`, if the flag was passed.
    pub fn value(&mut self, name: &str) -> Option<String> {
        self.known.push(format!("{name} VALUE"));
        let i = (0..self.args.len()).find(|&i| !self.used[i] && self.args[i] == name)?;
        self.used[i] = true;
        if i + 1 < self.args.len() {
            self.used[i + 1] = true;
            Some(self.args[i + 1].clone())
        } else {
            self.missing_value.get_or_insert_with(|| name.to_string());
            None
        }
    }

    /// The value flag `name` parsed as a `T`.
    ///
    /// # Errors
    ///
    /// Names the flag when its value does not parse.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name} {v}: {e}")))
            .transpose()
    }

    /// Checks that every argument was consumed by a lookup. Under
    /// `--help`, prints the flags looked up and exits 0 instead.
    ///
    /// # Errors
    ///
    /// Names the first argument no lookup consumed, or the first value
    /// flag given without a value.
    pub fn finish(self) -> Result<(), String> {
        let unused = || self.args.iter().zip(&self.used).filter(|(_, used)| !**used);
        if unused().any(|(arg, _)| arg == "--help") {
            println!("usage: {} [FLAG]...\n\nflags:", self.program);
            for flag in &self.known {
                println!("  {flag}");
            }
            std::process::exit(0);
        }
        if let Some(name) = &self.missing_value {
            return Err(format!("{name} needs a value"));
        }
        match unused().next() {
            Some((arg, _)) => {
                Err(format!("unknown argument `{arg}` (`{} --help` lists the flags)", self.program))
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("/bin/prog", list.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn args_accept_exactly_the_flags_looked_up() {
        let mut a = args(&["--quick", "--out", "x.json", "--threads", "3"]);
        assert!(a.switch("--quick"));
        assert!(!a.switch("--canonical"));
        assert_eq!(a.value("--out").as_deref(), Some("x.json"));
        assert_eq!(a.parsed::<usize>("--threads"), Ok(Some(3)));
        assert_eq!(a.value("--store"), None);
        assert_eq!(a.finish(), Ok(()));

        let mut a = args(&["--quick", "--stor", "x", "--bogus"]);
        a.switch("--quick");
        a.value("--store");
        let err = a.finish().unwrap_err();
        assert!(err.contains("`--stor`") && err.contains("prog --help"), "{err}");
    }

    #[test]
    fn args_name_bad_and_missing_values() {
        let mut a = args(&["--threads", "many"]);
        let err = a.parsed::<usize>("--threads").unwrap_err();
        assert!(err.starts_with("--threads many:"), "{err}");

        let mut a = args(&["--out"]);
        assert_eq!(a.value("--out"), None);
        assert_eq!(a.finish(), Err("--out needs a value".to_string()));
    }
}
