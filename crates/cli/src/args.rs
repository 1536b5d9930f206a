//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! A flag immediately followed by another flag (or by the end of the
//! argument list) is a bare boolean switch and parses as `"true"`, so
//! `--quiet` and `--quiet true` are equivalent. Each subcommand declares
//! the flags it accepts; [`ParsedArgs::parse_declared`] rejects any other
//! flag, naming the nearest declared one.

use std::collections::HashMap;

/// Parsed `--flag value` pairs.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    flags: HashMap<String, String>,
}

impl ParsedArgs {
    /// Parses a flat list of `--flag value` pairs and bare `--flag`
    /// boolean switches.
    pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let (value, consumed) = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => (v.clone(), 2),
                _ => ("true".to_string(), 1),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
            i += consumed;
        }
        Ok(ParsedArgs { flags })
    }

    /// [`parse`](Self::parse), then rejects every flag not named in
    /// `declared` (names without the leading `--`), suggesting the
    /// nearest declared name when one is close (a typo such as `--prnue`
    /// for `--prune`).
    pub fn parse_declared(args: &[String], declared: &[&str]) -> Result<ParsedArgs, String> {
        let parsed = ParsedArgs::parse(args)?;
        let mut given: Vec<&String> = parsed.flags.keys().collect();
        given.sort();
        for name in given {
            if declared.contains(&name.as_str()) {
                continue;
            }
            let nearest = declared
                .iter()
                .map(|&n| (edit_distance(n, name), n))
                .filter(|&(d, n)| d <= 2.max(n.len() / 3))
                .min();
            return Err(match nearest {
                Some((_, n)) => format!("unknown flag --{name} (did you mean --{n}?)"),
                None => format!("unknown flag --{name}"),
            });
        }
        Ok(parsed)
    }

    /// Required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Optional typed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }

    /// Optional typed flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse '{v}'")),
        }
    }
}

/// Levenshtein distance between two flag names (byte-wise; flag names
/// are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let b = b.as_bytes();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.bytes().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn parses_flag_value_pairs() {
        let a = ParsedArgs::parse(&s(&["--input", "x.txt", "--k", "70"])).unwrap();
        assert_eq!(a.required("input").unwrap(), "x.txt");
        assert_eq!(a.get_or::<usize>("k", 0).unwrap(), 70);
        assert_eq!(a.get_or::<usize>("missing", 5).unwrap(), 5);
        assert_eq!(a.optional("nope"), None);
    }

    #[test]
    fn rejects_bare_values_and_duplicates() {
        assert!(ParsedArgs::parse(&s(&["input"])).is_err());
        assert!(ParsedArgs::parse(&s(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn bare_flags_parse_as_boolean_switches() {
        let a =
            ParsedArgs::parse(&s(&["--metrics", "--metrics-out", "m.json", "--quiet"])).unwrap();
        assert!(a.get_or("metrics", false).unwrap());
        assert_eq!(a.required("metrics-out").unwrap(), "m.json");
        assert!(a.get_or("quiet", false).unwrap());
        // Explicit values still work, including negative numbers.
        let b = ParsedArgs::parse(&s(&["--quiet", "false", "--threshold", "-1"])).unwrap();
        assert!(!b.get_or("quiet", true).unwrap());
        assert_eq!(b.get::<f64>("threshold").unwrap(), Some(-1.0));
    }

    #[test]
    fn typed_parse_errors_are_reported() {
        let a = ParsedArgs::parse(&s(&["--k", "seventy"])).unwrap();
        assert!(a.get_or::<usize>("k", 0).is_err());
        assert!(a.get::<f64>("k").is_err());
        let b = ParsedArgs::parse(&s(&["--t", "0.5"])).unwrap();
        assert_eq!(b.get::<f64>("t").unwrap(), Some(0.5));
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let a = ParsedArgs::parse(&[]).unwrap();
        assert!(a.required("input").is_err());
    }

    const DECLARED: &[&str] = &["prune", "quiet"];

    #[test]
    fn undeclared_flags_are_rejected_with_the_nearest_name() {
        let ok = ParsedArgs::parse_declared(&s(&["--prune", "0.5", "--quiet"]), DECLARED);
        assert!(ok.is_ok());
        let typo = ParsedArgs::parse_declared(&s(&["--prnue", "0.5"]), DECLARED).unwrap_err();
        assert!(
            typo.contains("--prnue") && typo.contains("--prune"),
            "{typo}"
        );
        let far = ParsedArgs::parse_declared(&s(&["--colour", "red"]), DECLARED).unwrap_err();
        assert_eq!(far, "unknown flag --colour");
    }

    #[test]
    fn edit_distance_counts_single_edits() {
        assert_eq!(edit_distance("prune", "prune"), 0);
        assert_eq!(edit_distance("prune", "prnue"), 2);
        assert_eq!(edit_distance("k", "kk"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
