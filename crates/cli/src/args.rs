//! Minimal `--flag value` argument parsing (no external dependency).

use std::str::FromStr;
use std::time::Duration;

/// Why a command failed. A usage error — an unknown subcommand or flag,
/// a missing or malformed value — is printed with the usage text; a
/// failure while running a well-formed command is printed as one line.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// The command line is wrong.
    Usage(String),
    /// The command line is right, and running it failed.
    Runtime(String),
}

/// A usage error.
pub fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

/// Parsed flags: `--name value` pairs plus standalone `--switch`es.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses everything after the subcommand. Flags must start with
    /// `--`; a flag followed by another flag (or nothing) is a switch.
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let flag = &argv[i];
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| usage(format!("expected a --flag, got '{flag}'")))?;
            if name.is_empty() {
                return Err(usage("empty flag name"));
            }
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    args.pairs.push((name.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    args.switches.push(name.to_string());
                    i += 1;
                }
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name`, or an error naming the missing flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| usage(format!("missing --{name}")))
    }

    /// True when `--name` appears as a bare switch.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses `--name` as the given type, with a default.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("--{name}: cannot parse '{v}'"))),
            None => Ok(default),
        }
    }

    /// [`Args::parsed_or`] for a count that must be at least 1.
    pub fn positive_or<T: FromStr + PartialEq + From<u8>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        let value = self.parsed_or(name, default)?;
        if value == T::from(0) {
            return Err(usage(format!("--{name} must be positive")));
        }
        Ok(value)
    }

    /// `--name` as a number of seconds, with a default. A negative, NaN,
    /// infinite or out-of-range value is an error.
    pub fn seconds_or(&self, name: &str, default: Duration) -> Result<Duration, CliError> {
        let Some(v) = self.get(name) else {
            return Ok(default);
        };
        v.parse::<f64>()
            .ok()
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .ok_or_else(|| {
                usage(format!(
                    "--{name}: not a non-negative number of seconds: '{v}'"
                ))
            })
    }

    /// Fails on any flag outside `values` (flags that take a value) and
    /// `switches` (bare flags), and on a flag given in the other form.
    /// Every subcommand calls it before doing any work, so a typo or a
    /// flag it does not take is an error, not a silently applied
    /// default.
    pub fn only(&self, values: &[&str], switches: &[&str]) -> Result<(), CliError> {
        for (name, value) in &self.pairs {
            if switches.contains(&name.as_str()) {
                return Err(usage(format!("--{name} takes no value, got '{value}'")));
            }
            if !values.contains(&name.as_str()) {
                return Err(usage(format!("unknown flag --{name}")));
            }
        }
        for name in &self.switches {
            if values.contains(&name.as_str()) {
                return Err(usage(format!("--{name} needs a value")));
            }
            if !switches.contains(&name.as_str()) {
                return Err(usage(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = Args::parse(&sv(&["--workload", "TPC-C", "--json", "--runs", "3"])).unwrap();
        assert_eq!(a.get("workload"), Some("TPC-C"));
        assert!(a.switch("json"));
        assert_eq!(a.parsed_or::<usize>("runs", 1).unwrap(), 3);
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = Args::parse(&sv(&["--x", "1"])).unwrap();
        assert!(a.required("workload").is_err());
    }

    #[test]
    fn default_used_when_absent() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.parsed_or::<u64>("seed", 7).unwrap(), 7);
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse(&sv(&["--runs", "many"])).unwrap();
        assert!(a.parsed_or::<usize>("runs", 1).is_err());
    }

    #[test]
    fn non_flag_token_rejected() {
        assert!(Args::parse(&sv(&["workload"])).is_err());
    }

    #[test]
    fn only_rejects_unknown_flags_and_wrong_forms() {
        let a = Args::parse(&sv(&["--workload", "YCSB", "--json"])).unwrap();
        assert_eq!(a.only(&["workload", "sku"], &["json"]), Ok(()));
        // A typo and a flag meant for another subcommand.
        let typo = Args::parse(&sv(&["--terminalz", "64"])).unwrap();
        assert_eq!(
            typo.only(&["terminals"], &[]),
            Err(usage("unknown flag --terminalz"))
        );
        let stray = Args::parse(&sv(&["--backend", "pool"])).unwrap();
        assert!(stray.only(&["addr", "threads"], &["obs"]).is_err());
        let bare = Args::parse(&sv(&["--verbose"])).unwrap();
        assert!(bare.only(&[], &["json"]).is_err());
        // A value flag without its value, and a switch given one.
        let missing = Args::parse(&sv(&["--seed", "--json"])).unwrap();
        assert_eq!(
            missing.only(&["seed"], &["json"]),
            Err(usage("--seed needs a value"))
        );
        let valued = Args::parse(&sv(&["--json", "1"])).unwrap();
        assert!(valued.only(&[], &["json"]).is_err());
    }

    #[test]
    fn seconds_reject_negative_nan_and_infinite_values() {
        let ok = Args::parse(&sv(&["--timeout", "0.25", "--warmup", "0"])).unwrap();
        let default = Duration::from_secs(3);
        assert_eq!(
            ok.seconds_or("timeout", default),
            Ok(Duration::from_millis(250))
        );
        assert_eq!(ok.seconds_or("warmup", default), Ok(Duration::ZERO));
        assert_eq!(ok.seconds_or("duration", default), Ok(default));
        for bad in ["-1", "nan", "inf", "-inf", "1e300", "soon"] {
            let a = Args::parse(&sv(&["--timeout", bad])).unwrap();
            assert!(a.seconds_or("timeout", default).is_err(), "{bad}");
        }
    }

    #[test]
    fn positive_counts_reject_zero() {
        let a = Args::parse(&sv(&["--connections", "0", "--tenants", "3"])).unwrap();
        assert!(a.positive_or::<usize>("connections", 4).is_err());
        assert_eq!(a.positive_or::<u64>("tenants", 2), Ok(3));
        assert_eq!(a.positive_or::<usize>("batches", 12), Ok(12));
    }

    #[test]
    fn trailing_switch() {
        let a = Args::parse(&sv(&["--verbose"])).unwrap();
        assert!(a.switch("verbose"));
        assert!(!a.switch("json"));
    }
}
