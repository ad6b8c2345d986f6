//! Minimal `--key value` argument parsing (no external dependency).

use std::collections::HashMap;

/// Parsed command-line flags: every `--key value` pair plus bare `--key`
/// boolean flags.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses a flat flag list. Every token must be `--key` optionally
    /// followed by a non-flag value.
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let token = &raw[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{token}' (flags are --key value)"
                ));
            };
            if key.is_empty() {
                return Err("empty flag '--'".into());
            }
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                args.values.insert(key.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// The flags given (with or without a value) that are not in `known`,
    /// sorted.
    pub fn unknown(&self, known: &[&str]) -> Vec<&str> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|key| !known.contains(key))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        unknown
    }

    /// Whether a bare boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A string value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required string value.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid value for --{key}: {e}")),
        }
    }

    /// A comma-separated list of parsed values with a default.
    pub fn list_or<T>(&self, key: &str, default: &[T]) -> Result<Vec<T>, String>
    where
        T: std::str::FromStr + Clone,
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|e| format!("invalid value in --{key}: {e}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn key_value_pairs_and_bools() {
        let args = parse(&["--out", "x.ndsc", "--external", "--k", "8"]);
        assert_eq!(args.get("out"), Some("x.ndsc"));
        assert!(args.flag("external"));
        assert_eq!(args.get_or("k", 0usize).unwrap(), 8);
        assert_eq!(args.get_or("t", 25usize).unwrap(), 25);
    }

    #[test]
    fn required_reports_missing() {
        let args = parse(&["--a", "1"]);
        assert!(args.required("out").is_err());
        assert!(args.required("a").is_ok());
    }

    #[test]
    fn lists_parse() {
        let args = parse(&["--thetas", "1.0,0.9, 0.8"]);
        assert_eq!(
            args.list_or("thetas", &[0.5f64]).unwrap(),
            vec![1.0, 0.9, 0.8]
        );
        assert_eq!(args.list_or("missing", &[0.5f64]).unwrap(), vec![0.5]);
    }

    #[test]
    fn unknown_lists_flags_outside_the_declared_set() {
        let args = parse(&["--out", "x", "--fromat", "v4", "--compress", "--k", "8"]);
        assert_eq!(
            args.unknown(&["out", "k", "format"]),
            ["compress", "fromat"]
        );
        assert!(args.unknown(&["out", "k", "fromat", "compress"]).is_empty());
    }

    #[test]
    fn rejects_positional() {
        let raw = vec!["positional".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn bad_numbers_error() {
        let args = parse(&["--k", "many"]);
        assert!(args.get_or("k", 1usize).is_err());
    }
}
