//! A minimal `--key value` command-line parser (keeps the harness
//! free of extra dependencies).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`: `--key value` pairs and bare
    /// `--flag`s.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (for tests).
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let tokens: Vec<String> = iter.into_iter().collect();
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    values.insert(key.to_owned(), tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
                flags.push(key.to_owned());
            }
            i += 1;
        }
        Args { values, flags }
    }

    /// Typed lookup with a default. A value that does not parse ends
    /// the process with a usage error naming the option and the value.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Typed lookup with a default; a value that does not parse is an
    /// error naming the option and the value.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// String lookup with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values.get(key).cloned().unwrap_or_else(|| default.to_owned())
    }

    /// Whether a bare `--flag` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::from_tokens(["--steps", "50", "--fast", "--bits", "16"].map(String::from));
        assert_eq!(a.get("steps", 0usize), 50);
        assert_eq!(a.get("bits", 8usize), 16);
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
        assert_eq!(a.get("missing", 7u32), 7);
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let a = Args::from_tokens(["--steps", "abc", "--seed", "-1"].map(String::from));
        assert_eq!(a.try_get("steps", 80usize), Err("invalid value `abc` for --steps".into()));
        assert_eq!(a.try_get("seed", 1u64), Err("invalid value `-1` for --seed".into()));
        assert_eq!(a.try_get("bits", 8usize), Ok(8));
    }
}
