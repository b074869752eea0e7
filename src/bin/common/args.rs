//! The `--flag value` parser both command-line tools use, with the
//! lookups they share. Each binary includes this file as its `args`
//! module; it is not part of the library's API.
//!
//! Every option a command accepts is looked up by name, and integer
//! options parse as integers, so `--seed -1` or `--nodes 2.7` are errors
//! rather than casts. [`Parsed::finish`] then rejects any option the
//! command never looked up — a typo such as `--nodse` fails instead of
//! running with the default.

use cluster_server_eval::policy::PolicyKind;
use cluster_server_eval::trace::TraceSpec;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug)]
pub struct Parsed {
    /// First positional argument.
    pub command: String,
    /// `--key value` pairs; bare `--key` stores an empty value.
    options: BTreeMap<String, String>,
    /// Keys the command has looked up, for [`Parsed::finish`].
    read: RefCell<BTreeSet<String>>,
}

/// Parses `argv[1..]`. Returns `Err` with a message on malformed input
/// (option before subcommand, stray positional argument).
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Parsed, String> {
    let mut it = argv.into_iter().peekable();
    let command = match it.next() {
        Some(c) if !c.starts_with("--") => c,
        Some(c) => return Err(format!("expected a subcommand before {c}")),
        None => return Err("expected a subcommand".into()),
    };
    let mut options = BTreeMap::new();
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {tok}"));
        };
        // A following token that isn't itself an option is this
        // option's value; a bare flag stores the empty string.
        let value = it.next_if(|v| !v.starts_with("--")).unwrap_or_default();
        options.insert(key.to_string(), value);
    }
    Ok(Parsed {
        command,
        options,
        read: RefCell::default(),
    })
}

impl Parsed {
    /// The raw value of `--key`, if given. A bare `--key` (no value) is
    /// an error naming the flag.
    pub fn value(&self, key: &str) -> Result<Option<&str>, String> {
        self.read.borrow_mut().insert(key.to_string());
        match self.options.get(key).map(String::as_str) {
            Some("") => Err(format!("missing value for --{key}")),
            other => Ok(other),
        }
    }

    /// Fetches an option parsed as `T`, with a default.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{key}")),
        }
    }

    /// Fetches a string option.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.read.borrow_mut().insert(key.to_string());
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// True when the bare flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().insert(key.to_string());
        self.options.contains_key(key)
    }

    /// `--key` as a count of at least one.
    pub fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// `--key` as a positive, finite quantity.
    pub fn positive(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.get(key, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be positive and finite, got {v}"))
        }
    }

    /// `--cache-mb` (default `default_mb`) in KB, the unit the cluster
    /// sizes caches in: a megabyte count whose KB value is not finite
    /// (`1e306`) is an error naming the flag, like a non-positive one.
    pub fn cache_kb(&self, default_mb: f64) -> Result<f64, String> {
        let kb = self.positive("cache-mb", default_mb)? * 1024.0;
        if kb.is_finite() {
            Ok(kb)
        } else {
            Err("--cache-mb is too large: its size in KB is not finite".into())
        }
    }

    /// Fails naming the first option the command never looked up: a
    /// misspelt flag, or one that does not apply to this command.
    pub fn finish(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self.options.keys().find(|key| !read.contains(*key)) {
            Some(key) => Err(format!(
                "{}: unknown or unused option --{key}",
                self.command
            )),
            None => Ok(()),
        }
    }
}

/// A Table 2 trace by name.
pub fn trace_by_name(name: &str) -> Result<TraceSpec, String> {
    match name {
        "calgary" => Ok(TraceSpec::calgary()),
        "clarknet" => Ok(TraceSpec::clarknet()),
        "nasa" => Ok(TraceSpec::nasa()),
        "rutgers" => Ok(TraceSpec::rutgers()),
        other => Err(format!(
            "unknown trace {other:?} (expected calgary|clarknet|nasa|rutgers)"
        )),
    }
}

/// A request-distribution policy by its report name.
pub fn policy_by_name(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::all()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = PolicyKind::all().iter().map(|k| k.name()).collect();
            format!(
                "unknown policy {name:?} (expected one of {})",
                names.join("|")
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let p = parse(argv("simulate --nodes 8 --policy l2s --dfs")).unwrap();
        assert_eq!(p.command, "simulate");
        assert_eq!(p.get::<usize>("nodes", 1).unwrap(), 8);
        assert_eq!(p.get_str("policy", "x"), "l2s");
        assert!(p.flag("dfs"));
        assert!(!p.flag("missing"));
    }

    #[test]
    fn defaults_apply() {
        let p = parse(argv("model")).unwrap();
        assert_eq!(p.get::<f64>("hit", 0.8).unwrap(), 0.8);
    }

    #[test]
    fn rejects_missing_command() {
        assert!(parse(argv("")).is_err());
        assert!(parse(argv("--nodes 4")).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        let p = parse(argv("model --nodes banana")).unwrap();
        assert!(p.get::<usize>("nodes", 1).is_err());
    }

    #[test]
    fn rejects_stray_positionals() {
        assert!(parse(argv("simulate extra")).is_err());
    }

    #[test]
    fn bare_typed_option_reports_missing_value() {
        // Regression: `--nodes` with no value used to surface as
        // `invalid value "" for --nodes`, hiding what went wrong.
        let p = parse(argv("model --nodes")).unwrap();
        let err = p.get::<usize>("nodes", 1).unwrap_err();
        assert!(err.contains("missing value for --nodes"), "{err}");
    }

    #[test]
    fn bare_flag_followed_by_an_option_stays_a_flag() {
        let p = parse(argv("simulate --dfs --nodes 4")).unwrap();
        assert!(p.flag("dfs"));
        assert_eq!(p.get::<usize>("nodes", 1).unwrap(), 4);
    }

    #[test]
    fn integers_do_not_accept_floats_or_signs() {
        for (key, raw) in [("nodes", "2.7"), ("nodes", "1e12"), ("seed", "-1")] {
            let p = parse(argv(&format!("simulate --{key} {raw}"))).unwrap();
            let err = p.get::<u64>(key, 1).unwrap_err();
            assert!(err.contains(&format!("--{key}")), "{err}");
        }
    }

    #[test]
    fn finish_names_the_first_option_never_read() {
        let p = parse(argv("simulate --nodse 4 --policy l2s")).unwrap();
        p.get_str("policy", "l2s");
        let err = p.finish().unwrap_err();
        assert!(err.contains("--nodse"), "{err}");
        p.count("nodse", 1).unwrap();
        p.finish().unwrap();
    }
}
