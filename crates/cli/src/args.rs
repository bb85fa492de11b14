//! Minimal dependency-free option parsing.

use std::collections::HashMap;

/// Parsed command-line tail: positional arguments plus `--key value` /
/// `-k value` options (flags without values are stored as empty strings).
#[derive(Debug, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// Option keys that take a value.
const VALUED: &[&str] = &[
    "-o",
    "--out",
    "--asm",
    "--scale",
    "--seed",
    "--dynamic",
    "--config",
    "-j",
    "--jobs",
    "--report",
    "--grid",
    "--cells",
    "--shard",
    "--journal",
    "--limit",
    "--max-retries",
    "--cell-deadline",
    "--trace-out",
    "--heartbeat",
];

/// Option keys that take no value. A `-`-prefixed token in neither list
/// is rejected, so a misspelled option fails instead of being ignored.
const FLAGS: &[&str] = &["--allow-degraded", "--keep-going", "--stream"];

/// Splits `argv` into positionals and options.
///
/// # Errors
///
/// Returns an error naming the token when an option is unknown or a
/// valued option is missing its value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if a.starts_with('-') {
            if VALUED.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("option {a} requires a value"))?;
                out.options.insert(a.clone(), v.clone());
            } else if FLAGS.contains(&a.as_str()) {
                out.options.insert(a.clone(), String::new());
            } else {
                return Err(format!("unknown option {a}"));
            }
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// Returns the value of the first present key among `keys`.
    pub fn opt(&self, keys: &[&str]) -> Option<&str> {
        keys.iter().find_map(|k| self.options.get(*k)).map(String::as_str)
    }

    /// Parses an integer option.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is present but not an integer.
    pub fn opt_u64(&self, keys: &[&str]) -> Result<Option<u64>, String> {
        match self.opt(keys) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("expected an integer for {}, got {v:?}", keys[0])),
        }
    }

    /// Returns the worker-thread count selected by `-j`/`--jobs`
    /// (default: the machine's available parallelism).
    ///
    /// # Errors
    ///
    /// Returns an error when the value is not a positive integer.
    pub fn jobs(&self) -> Result<usize, String> {
        match self.opt(&["-j", "--jobs"]) {
            None => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("expected a positive integer for --jobs, got {v:?}")),
            },
        }
    }

    /// Whether `--allow-degraded` was passed: fidelity-gate failures are
    /// downgraded to warnings instead of aborting the command.
    pub fn allow_degraded(&self) -> bool {
        self.opt(&["--allow-degraded"]).is_some()
    }

    /// Whether `--keep-going` was passed: permanently-failing sweep cells
    /// are quarantined (with typed records in the journal) instead of
    /// aborting the sweep.
    pub fn keep_going(&self) -> bool {
        self.opt(&["--keep-going"]).is_some()
    }

    /// Destination of the machine-readable run report selected by
    /// `--report` (`-` streams the JSON to stdout), or `None` when no
    /// report was requested.
    pub fn report_dest(&self) -> Option<&str> {
        self.opt(&["--report"])
    }

    /// Destination file of the Chrome Trace Format event trace selected
    /// by `--trace-out`, or `None` when tracing was not requested.
    pub fn trace_out(&self) -> Option<&str> {
        self.opt(&["--trace-out"])
    }

    /// Heartbeat cadence in milliseconds selected by `--heartbeat`
    /// (default 1000; 0 disables the sampler).
    ///
    /// # Errors
    ///
    /// Returns an error when the value is not an integer.
    pub fn heartbeat_ms(&self) -> Result<u64, String> {
        Ok(self.opt_u64(&["--heartbeat"])?.unwrap_or(1000))
    }

    /// Returns the input scale selected by `--scale` (default small).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown scale names.
    pub fn scale(&self) -> Result<perfclone_kernels::Scale, String> {
        match self.opt(&["--scale"]) {
            None | Some("small") => Ok(perfclone_kernels::Scale::Small),
            Some("tiny") => Ok(perfclone_kernels::Scale::Tiny),
            Some(other) => Err(format!("unknown scale {other:?} (use tiny or small)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let p = parse(&argv(&["profile", "crc32", "--scale", "tiny", "-o", "x.json"])).unwrap();
        assert_eq!(p.positional, vec!["profile", "crc32"]);
        assert_eq!(p.opt(&["--scale"]), Some("tiny"));
        assert_eq!(p.opt(&["-o", "--out"]), Some("x.json"));
        assert_eq!(p.opt(&["--missing"]), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["synth", "--seed"])).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        for bad in ["--cell-dedline", "--confg", "--help", "-x"] {
            let err = parse(&argv(&["grid", "crc32", bad, "5"])).unwrap_err();
            assert_eq!(err, format!("unknown option {bad}"));
        }
        let p = parse(&argv(&["grid", "crc32", "--stream", "--keep-going", "--allow-degraded"]))
            .unwrap();
        assert_eq!(p.positional, vec!["grid", "crc32"]);
        assert!(p.opt(&["--stream"]).is_some() && p.keep_going() && p.allow_degraded());
    }

    #[test]
    fn scale_parses() {
        let p = parse(&argv(&["x", "--scale", "tiny"])).unwrap();
        assert_eq!(p.scale().unwrap(), perfclone_kernels::Scale::Tiny);
        let q = parse(&argv(&["x"])).unwrap();
        assert_eq!(q.scale().unwrap(), perfclone_kernels::Scale::Small);
        let r = parse(&argv(&["x", "--scale", "huge"])).unwrap();
        assert!(r.scale().is_err());
    }

    #[test]
    fn jobs_option() {
        let p = parse(&argv(&["sweep", "crc32", "--jobs", "3"])).unwrap();
        assert_eq!(p.jobs().unwrap(), 3);
        let q = parse(&argv(&["sweep", "crc32", "-j", "1"])).unwrap();
        assert_eq!(q.jobs().unwrap(), 1);
        let d = parse(&argv(&["sweep", "crc32"])).unwrap();
        assert!(d.jobs().unwrap() >= 1);
        let bad = parse(&argv(&["sweep", "crc32", "--jobs", "0"])).unwrap();
        assert!(bad.jobs().is_err());
        let worse = parse(&argv(&["sweep", "crc32", "--jobs", "many"])).unwrap();
        assert!(worse.jobs().is_err());
    }

    #[test]
    fn allow_degraded_flag() {
        let p = parse(&argv(&["validate", "crc32", "--allow-degraded"])).unwrap();
        assert!(p.allow_degraded());
        let q = parse(&argv(&["validate", "crc32"])).unwrap();
        assert!(!q.allow_degraded());
    }

    #[test]
    fn report_destination() {
        let p = parse(&argv(&["clone", "crc32", "--report", "out.json"])).unwrap();
        assert_eq!(p.report_dest(), Some("out.json"));
        let q = parse(&argv(&["clone", "crc32", "--report", "-"])).unwrap();
        assert_eq!(q.report_dest(), Some("-"));
        let r = parse(&argv(&["clone", "crc32"])).unwrap();
        assert_eq!(r.report_dest(), None);
        assert!(parse(&argv(&["clone", "crc32", "--report"])).is_err());
    }

    #[test]
    fn supervision_options() {
        let p = parse(&argv(&[
            "grid",
            "crc32",
            "--keep-going",
            "--max-retries",
            "4",
            "--cell-deadline",
            "500000",
        ]))
        .unwrap();
        assert!(p.keep_going());
        assert_eq!(p.opt_u64(&["--max-retries"]).unwrap(), Some(4));
        assert_eq!(p.opt_u64(&["--cell-deadline"]).unwrap(), Some(500_000));
        let q = parse(&argv(&["grid", "crc32"])).unwrap();
        assert!(!q.keep_going());
        assert_eq!(q.opt_u64(&["--max-retries"]).unwrap(), None);
    }

    #[test]
    fn trace_and_heartbeat_options() {
        let p = parse(&argv(&["grid", "crc32", "--trace-out", "t.json", "--heartbeat", "250"]))
            .unwrap();
        assert_eq!(p.trace_out(), Some("t.json"));
        assert_eq!(p.heartbeat_ms().unwrap(), 250);
        let q = parse(&argv(&["grid", "crc32"])).unwrap();
        assert_eq!(q.trace_out(), None);
        assert_eq!(q.heartbeat_ms().unwrap(), 1000, "heartbeats default on at 1 s");
        assert!(parse(&argv(&["grid", "--trace-out"])).is_err());
        let z = parse(&argv(&["grid", "crc32", "--heartbeat", "0"])).unwrap();
        assert_eq!(z.heartbeat_ms().unwrap(), 0);
    }

    #[test]
    fn u64_option() {
        let p = parse(&argv(&["x", "--seed", "42"])).unwrap();
        assert_eq!(p.opt_u64(&["--seed"]).unwrap(), Some(42));
        let q = parse(&argv(&["x", "--seed", "nope"])).unwrap();
        assert!(q.opt_u64(&["--seed"]).is_err());
    }
}
